//! The Glushkov position automaton of a content model.
//!
//! Conformance checking (Definition 3) requires deciding whether the string
//! of children labels of a node belongs to the regular language of its
//! element's content model. XML also requires content models to be
//! *1-unambiguous* (Brüggemann-Klein & Wood): while matching left to right,
//! the next symbol must decide which occurrence of it in the expression it
//! matches. Both questions are answered by one construction, built once per
//! element declaration.
//!
//! Number the leaf occurrences of the expression (its *positions*) and
//! compute `nullable`, `first`, `last` and `follow`. The automaton has one
//! state per position plus an initial state; reading `a` moves from a
//! state to each position labelled `a` in its `follow` set (`first` for
//! the initial state). It has no ε-moves, so membership is one
//! position-set simulation. The expression is 1-unambiguous exactly when
//! no `first` or `follow` set holds two positions of one symbol, so on the
//! models XML allows the set never holds more than one position.
//! [`Matcher::first_ambiguity`] reports the first such symbol; the
//! determinism lint uses it.

use crate::regex::Regex;
use crate::UNLIMITED;
use std::collections::HashMap;
use xnf_govern::{Budget, Exhausted};

/// The Glushkov automaton of one content-model regular expression.
///
/// State 0 is the initial state; state `p ≥ 1` is the `p`-th leaf
/// occurrence, in leaf order.
#[derive(Debug, Clone)]
pub struct Matcher {
    /// Alphabet interning: element name → symbol index.
    alphabet: HashMap<Box<str>, usize>,
    /// State → the symbol of its position (unused for state 0).
    syms: Vec<usize>,
    /// State → its successor positions, ascending: `follow(p)` for
    /// position `p`, and `first` for state 0.
    follow: Vec<Vec<u32>>,
    /// State → whether a word may end in it (`nullable` for state 0,
    /// membership in `last` for a position).
    accept: Vec<bool>,
}

/// `nullable`, `first` and `last` of a subexpression; `first` and `last`
/// are ascending because positions are numbered in leaf order.
struct Info {
    nullable: bool,
    first: Vec<u32>,
    last: Vec<u32>,
}

struct Builder<'b> {
    alphabet: HashMap<Box<str>, usize>,
    syms: Vec<usize>,
    follow: Vec<Vec<u32>>,
    budget: &'b Budget,
}

impl Builder<'_> {
    /// Adds every position of `to` to the follow set of every position of
    /// `from`.
    fn link(&mut self, from: &[u32], to: &[u32]) {
        for &p in from {
            self.follow[p as usize].extend_from_slice(to);
        }
    }

    /// Computes the `Info` of `re`, numbering its positions and filling
    /// their follow sets.
    ///
    /// Governed: each expression node charges 2 memory units (its position
    /// and its `first`/`last` entries) plus one per follow entry it adds,
    /// after its children and before it allocates, so follow sets that
    /// grow quadratically stop at the cap instead of allocating without
    /// bound.
    fn walk(&mut self, re: &Regex) -> Result<Info, Exhausted> {
        match re {
            Regex::Epsilon => {
                self.budget.charge("nfa.build.node", 2)?;
                Ok(Info {
                    nullable: true,
                    first: Vec::new(),
                    last: Vec::new(),
                })
            }
            Regex::Elem(name) => {
                self.budget.charge("nfa.build.node", 2)?;
                let p = self.syms.len() as u32;
                let next_sym = self.alphabet.len();
                let sym = *self.alphabet.entry(name.clone()).or_insert(next_sym);
                self.syms.push(sym);
                self.follow.push(Vec::new());
                Ok(Info {
                    nullable: false,
                    first: vec![p],
                    last: vec![p],
                })
            }
            Regex::Seq(parts) => {
                let infos = parts
                    .iter()
                    .map(|p| self.walk(p))
                    .collect::<Result<Vec<_>, _>>()?;
                let mut units = 2;
                let mut last_len = 0;
                for info in &infos {
                    units += (last_len * info.first.len()) as u64;
                    last_len = info.last.len() + if info.nullable { last_len } else { 0 };
                }
                self.budget.charge("nfa.build.node", units)?;
                let mut acc = Info {
                    nullable: true,
                    first: Vec::new(),
                    last: Vec::new(),
                };
                for info in infos {
                    self.link(&acc.last, &info.first);
                    if acc.nullable {
                        acc.first.extend_from_slice(&info.first);
                    }
                    if info.nullable {
                        acc.last.extend_from_slice(&info.last);
                    } else {
                        acc.last = info.last;
                    }
                    acc.nullable &= info.nullable;
                }
                Ok(acc)
            }
            Regex::Alt(parts) => {
                let mut acc = Info {
                    nullable: false,
                    first: Vec::new(),
                    last: Vec::new(),
                };
                for part in parts {
                    let info = self.walk(part)?;
                    acc.nullable |= info.nullable;
                    acc.first.extend_from_slice(&info.first);
                    acc.last.extend_from_slice(&info.last);
                }
                self.budget.charge("nfa.build.node", 2)?;
                Ok(acc)
            }
            Regex::Star(inner) | Regex::Plus(inner) => {
                let info = self.walk(inner)?;
                let units = 2 + (info.last.len() * info.first.len()) as u64;
                self.budget.charge("nfa.build.node", units)?;
                self.link(&info.last, &info.first);
                Ok(Info {
                    nullable: matches!(re, Regex::Star(_)) || info.nullable,
                    ..info
                })
            }
            Regex::Opt(inner) => {
                let info = self.walk(inner)?;
                self.budget.charge("nfa.build.node", 2)?;
                Ok(Info {
                    nullable: true,
                    ..info
                })
            }
        }
    }
}

impl Matcher {
    /// Builds the Glushkov automaton of `re`.
    pub fn new(re: &Regex) -> Self {
        match Self::new_governed(re, UNLIMITED) {
            Ok(m) => m,
            Err(_) => unreachable!("an unlimited budget cannot exhaust"),
        }
    }

    /// Builds the Glushkov automaton of `re` under a resource [`Budget`]:
    /// one checkpoint per expression node, charging its positions and
    /// follow entries against the budget's memory cap.
    pub fn new_governed(re: &Regex, budget: &Budget) -> Result<Self, Exhausted> {
        let _span = budget.recorder().span("glushkov.build", "automata");
        let mut b = Builder {
            alphabet: HashMap::new(),
            syms: vec![usize::MAX],
            follow: vec![Vec::new()],
            budget,
        };
        let info = b.walk(re)?;
        b.follow[0] = info.first;
        for set in &mut b.follow[1..] {
            set.sort_unstable();
            set.dedup();
        }
        let mut accept = vec![false; b.syms.len()];
        accept[0] = info.nullable;
        for &p in &info.last {
            accept[p as usize] = true;
        }
        Ok(Matcher {
            alphabet: b.alphabet,
            syms: b.syms,
            follow: b.follow,
            accept,
        })
    }

    /// Whether the word (a sequence of element names) belongs to the
    /// language of the compiled expression.
    pub fn matches<'a>(&self, word: impl IntoIterator<Item = &'a str>) -> bool {
        match self.matches_governed(word, UNLIMITED) {
            Ok(b) => b,
            Err(_) => unreachable!("an unlimited budget cannot exhaust"),
        }
    }

    /// [`matches`](Matcher::matches) under a resource [`Budget`]: the
    /// position-set simulation spends one checkpoint per input symbol.
    pub fn matches_governed<'a>(
        &self,
        word: impl IntoIterator<Item = &'a str>,
        budget: &Budget,
    ) -> Result<bool, Exhausted> {
        let mut current: Vec<u32> = vec![0];
        let mut next: Vec<u32> = Vec::new();
        // `added[q] == step` once `q` is in the set being built, so a
        // position reached from two states is added once.
        let mut added = vec![0u32; self.syms.len()];
        for (step, sym_name) in (1u32..).zip(word) {
            budget.checkpoint("nfa.match.step")?;
            let Some(&sym) = self.alphabet.get(sym_name) else {
                return Ok(false); // symbol outside the alphabet: no word matches
            };
            next.clear();
            for &s in &current {
                for &q in &self.follow[s as usize] {
                    if self.syms[q as usize] == sym && added[q as usize] != step {
                        added[q as usize] = step;
                        next.push(q);
                    }
                }
            }
            if next.is_empty() {
                return Ok(false);
            }
            std::mem::swap(&mut current, &mut next);
        }
        Ok(current.iter().any(|&s| self.accept[s as usize]))
    }

    /// The first symbol with two positions in one `first` or `follow` set,
    /// or `None` if the expression is 1-unambiguous. Sets are searched
    /// `first`, then `follow` in position order, each in ascending
    /// position order; the symbol reported is that of the first position
    /// whose symbol already occurred in its set.
    pub fn first_ambiguity(&self) -> Option<&str> {
        // `seen[sym] == i + 1` once `sym` occurred in set `i`.
        let mut seen = vec![0usize; self.alphabet.len()];
        for (i, set) in self.follow.iter().enumerate() {
            for &q in set {
                let sym = self.syms[q as usize];
                if seen[sym] == i + 1 {
                    return self
                        .alphabet
                        .iter()
                        .find(|&(_, &s)| s == sym)
                        .map(|(name, _)| &**name);
                }
                seen[sym] = i + 1;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;

    fn m(re: &Regex) -> Matcher {
        Matcher::new(re)
    }

    fn a() -> Regex {
        Regex::elem("a")
    }
    fn b() -> Regex {
        Regex::elem("b")
    }
    fn c() -> Regex {
        Regex::elem("c")
    }

    #[test]
    fn epsilon_matches_only_empty() {
        let m = m(&Regex::Epsilon);
        assert!(m.matches([]));
        assert!(!m.matches(["a"]));
    }

    #[test]
    fn single_letter() {
        let m = m(&a());
        assert!(m.matches(["a"]));
        assert!(!m.matches([]));
        assert!(!m.matches(["a", "a"]));
        assert!(!m.matches(["b"]));
    }

    #[test]
    fn sequence() {
        let m = m(&Regex::seq([a(), b(), c()]));
        assert!(m.matches(["a", "b", "c"]));
        assert!(!m.matches(["a", "b"]));
        assert!(!m.matches(["a", "c", "b"]));
    }

    #[test]
    fn alternation() {
        let m = m(&Regex::alt([a(), Regex::seq([b(), c()])]));
        assert!(m.matches(["a"]));
        assert!(m.matches(["b", "c"]));
        assert!(!m.matches(["a", "b", "c"]));
        assert!(!m.matches(["b"]));
    }

    #[test]
    fn star() {
        let m = m(&a().star());
        assert!(m.matches([]));
        assert!(m.matches(["a"]));
        assert!(m.matches(["a", "a", "a", "a"]));
        assert!(!m.matches(["a", "b"]));
    }

    #[test]
    fn plus_and_opt() {
        let m_plus = m(&a().plus());
        assert!(!m_plus.matches([]));
        assert!(m_plus.matches(["a"]));
        assert!(m_plus.matches(["a", "a"]));
        let m_opt = m(&a().opt());
        assert!(m_opt.matches([]));
        assert!(m_opt.matches(["a"]));
        assert!(!m_opt.matches(["a", "a"]));
    }

    #[test]
    fn mixed_content_model() {
        // (a | b)*, c?, d+  — a realistic DTD content model shape.
        let re = Regex::seq([
            Regex::alt([a(), b()]).star(),
            c().opt(),
            Regex::elem("d").plus(),
        ]);
        let m = m(&re);
        assert!(m.matches(["d"]));
        assert!(m.matches(["a", "b", "a", "c", "d", "d"]));
        assert!(m.matches(["b", "d"]));
        assert!(!m.matches(["c"]));
        assert!(!m.matches(["a", "c", "c", "d"]));
        assert!(!m.matches(["d", "a"]));
    }

    #[test]
    fn ambiguous_models_match_through_several_positions() {
        // (a, b) | (a, c): after `a` the set holds both `a` positions.
        let m = m(&Regex::alt([
            Regex::seq([a(), b()]),
            Regex::seq([a(), c()]),
        ]));
        assert!(m.matches(["a", "b"]));
        assert!(m.matches(["a", "c"]));
        assert!(!m.matches(["a"]));
        assert!(!m.matches(["a", "b", "c"]));
        // (a | a)*: every follow set holds both positions.
        let m2 = self::m(&Regex::Star(Box::new(Regex::Alt(vec![a(), a()]))));
        assert!(m2.matches(["a", "a", "a"]));
        assert!(!m2.matches(["a", "b"]));
    }

    #[test]
    fn first_ambiguity_reports_the_competing_symbol() {
        assert_eq!(m(&Regex::seq([a().star(), b()])).first_ambiguity(), None);
        assert_eq!(m(&Regex::Epsilon).first_ambiguity(), None);
        // In `first`: (a, b) | (a, c).
        let re = Regex::alt([Regex::seq([a(), b()]), Regex::seq([a(), c()])]);
        assert_eq!(m(&re).first_ambiguity(), Some("a"));
        // In a `follow` set only: after `b` in (b, (c, a)*, c, a), the
        // loop's `c` and the last `c` compete.
        let re = Regex::seq([b(), Regex::seq([c(), a()]).star(), c(), a()]);
        assert_eq!(m(&re).first_ambiguity(), Some("c"));
    }

    #[test]
    fn governed_matching_agrees_with_ungoverned() {
        let re = Regex::seq([Regex::alt([a(), b()]).star(), c().opt()]);
        let matcher = m(&re);
        let generous = Budget::builder().fuel(1_000_000).build();
        for word in [&["a", "b", "c"][..], &["c", "c"][..], &[][..]] {
            assert_eq!(
                matcher
                    .matches_governed(word.iter().copied(), &generous)
                    .unwrap(),
                matcher.matches(word.iter().copied()),
            );
        }
    }

    #[test]
    fn governed_matching_exhausts_on_tiny_fuel() {
        let matcher = m(&a().star());
        let budget = Budget::builder().fuel(3).build();
        let word = ["a"; 16];
        let err = matcher
            .matches_governed(word.iter().copied(), &budget)
            .unwrap_err();
        assert_eq!(err.resource, xnf_govern::Resource::Fuel);
    }

    #[test]
    fn governed_build_respects_memory_cap() {
        let re = Regex::seq((0..64).map(|i| Regex::elem(format!("e{i}"))));
        assert!(Matcher::new_governed(&re, &Budget::builder().memory(16).build()).is_err());
        let m = Matcher::new_governed(&re, &Budget::builder().memory(100_000).build()).unwrap();
        let word: Vec<String> = (0..64).map(|i| format!("e{i}")).collect();
        assert!(m.matches(word.iter().map(String::as_str)));
    }

    #[test]
    fn governed_build_charges_one_tick_per_node_and_every_follow_entry() {
        // (e0 | … | e31)*: 34 nodes, and each of the 32 positions follows
        // every position — 1024 follow entries.
        let re = Regex::alt((0..32).map(|i| Regex::elem(format!("e{i}")))).star();
        let budget = Budget::builder().memory(u64::MAX).build();
        Matcher::new_governed(&re, &budget).unwrap();
        assert_eq!(budget.ticks(), 34);
        assert_eq!(budget.memory_used(), 2 * 34 + 32 * 32);
        let capped = Budget::builder().memory(1000).build();
        assert!(Matcher::new_governed(&re, &capped).is_err());
    }

    #[test]
    fn the_paper_non_simple_example() {
        // <!ELEMENT a (b,b)> from Section 7.
        let m = m(&Regex::seq([b(), b()]));
        assert!(m.matches(["b", "b"]));
        assert!(!m.matches(["b"]));
        assert!(!m.matches(["b", "b", "b"]));
    }

    #[test]
    fn faq_section_content_model() {
        // <!ELEMENT section (logo*, title, (qna+ | q+ | (p | div | section)+))>
        let re = Regex::seq([
            Regex::elem("logo").star(),
            Regex::elem("title"),
            Regex::alt([
                Regex::elem("qna").plus(),
                Regex::elem("q").plus(),
                Regex::alt([Regex::elem("p"), Regex::elem("div"), Regex::elem("section")]).plus(),
            ]),
        ]);
        let m = m(&re);
        assert!(m.matches(["title", "qna"]));
        assert!(m.matches(["logo", "logo", "title", "q", "q"]));
        assert!(m.matches(["title", "p", "div", "section"]));
        assert!(!m.matches(["title"]));
        assert!(!m.matches(["title", "qna", "q"]));
        assert_eq!(m.first_ambiguity(), None);
    }
}
