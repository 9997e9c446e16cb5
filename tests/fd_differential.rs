//! Differential testing of FD satisfaction: the hash-grouped check on
//! tree tuples (`ResolvedFd::check_tuples`) against the independent
//! pairwise check on the Codd-table view
//! (`Relation::satisfies_fd` over `tuples_relation`). The two share no
//! code path beyond `tuples_D` itself.
//!
//! It also checks the projected enumeration every satisfaction and
//! losslessness query runs on: `tuples_projected(keep)` restricted to
//! `keep` is `tuples_D(T)` restricted to `keep`, as a set, and its size
//! stays linear where the full relation is a product. MVD satisfaction
//! runs on that projection too, and must agree with the swap check over
//! the full relation.

use proptest::prelude::*;
use rand::Rng;
use std::collections::BTreeSet;
use xnf::core::lossless::{transform_document, undo_step};
use xnf::core::mvd::{structural_mvd, XmlMvd};
use xnf::core::{
    normalize, tuples_d, tuples_d_recursive, tuples_enumerated, tuples_projected, tuples_relation,
    NormalizeOptions, Step, XmlFdSet,
};
use xnf::dtd::{Dtd, Path, PathId, PathSet};
use xnf::relational::Value;
use xnf::xml::{NodeId, XmlTree};
use xnf_gen::doc::{random_document, DocParams};
use xnf_gen::dtd::{simple_dtd, SimpleDtdParams};
use xnf_gen::fd::{random_fds, FdParams};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tuple_check_matches_codd_table_check(seed in 0u64..100_000, elements in 2usize..8) {
        let mut rng = xnf_gen::rng(seed);
        let dtd = simple_dtd(
            &mut rng,
            &SimpleDtdParams {
                elements,
                max_children: 3,
                max_attrs: 2,
                text_leaf_prob: 0.5,
            },
        );
        let doc = random_document(
            &dtd,
            &mut rng,
            &DocParams { reps: (0, 2), value_alphabet: 2, max_nodes: 300 },
        );
        prop_assume!(doc.num_nodes() < 300);
        let paths = dtd.paths().unwrap();
        let tuples = tuples_d(&doc, &dtd, &paths).unwrap();
        prop_assume!(tuples.len() <= 256);
        let rel = tuples_relation(&doc, &dtd, &paths).unwrap();
        prop_assert_eq!(rel.len(), tuples.len());

        let fds = random_fds(&dtd, &mut rng, &FdParams { count: 6, max_lhs: 2 });
        for fd in fds.iter() {
            let fast = fd.resolve(&paths).unwrap().check_tuples(&tuples);
            let lhs: Vec<String> = fd.lhs().iter().map(ToString::to_string).collect();
            let rhs: Vec<String> = fd.rhs().iter().map(ToString::to_string).collect();
            let slow = rel.satisfies_fd(&lhs, &rhs).unwrap();
            prop_assert_eq!(fast, slow, "engines disagree on {} (seed {})", fd, seed);
        }
    }

    /// `XmlFd::satisfied_by` (the public entry point) agrees with both.
    #[test]
    fn public_satisfaction_entry_point_agrees(seed in 0u64..100_000) {
        let mut rng = xnf_gen::rng(seed);
        let dtd = simple_dtd(
            &mut rng,
            &SimpleDtdParams { elements: 6, max_children: 3, max_attrs: 2, text_leaf_prob: 0.5 },
        );
        let doc = random_document(
            &dtd,
            &mut rng,
            &DocParams { reps: (0, 2), value_alphabet: 2, max_nodes: 200 },
        );
        prop_assume!(doc.num_nodes() < 200);
        let paths = dtd.paths().unwrap();
        let tuples = tuples_d(&doc, &dtd, &paths).unwrap();
        prop_assume!(tuples.len() <= 128);
        let fds = random_fds(&dtd, &mut rng, &FdParams { count: 4, max_lhs: 2 });
        for fd in fds.iter() {
            prop_assert_eq!(
                fd.satisfied_by(&doc, &dtd, &paths).unwrap(),
                fd.resolve(&paths).unwrap().check_tuples(&tuples)
            );
        }
    }
}

/// A tuple set restricted to `keep`, as a set of value rows.
fn restrict(
    tuples: &[xnf::core::TreeTuple],
    keep: &[PathId],
) -> BTreeSet<Vec<xnf::relational::Value>> {
    tuples
        .iter()
        .map(|t| keep.iter().map(|&p| t.get(p).clone()).collect())
        .collect()
}

/// A random subset of the paths, each kept with probability 1/3.
fn random_keep(paths: &PathSet, rng: &mut impl Rng) -> Vec<PathId> {
    paths.iter().filter(|_| rng.random_ratio(1, 3)).collect()
}

/// Asserts the projection identity on `doc` for a few random `keep` sets
/// plus every single path.
fn assert_projection_exact(doc: &XmlTree, dtd: &Dtd, paths: &PathSet, rng: &mut impl Rng) {
    let full = tuples_d(doc, dtd, paths).unwrap();
    let mut keeps: Vec<Vec<PathId>> = paths.iter().map(|p| vec![p]).collect();
    keeps.push(Vec::new());
    keeps.extend((0..8).map(|_| random_keep(paths, rng)));
    for keep in keeps {
        let projected = tuples_projected(doc, dtd, paths, &keep).unwrap();
        assert!(projected.len() <= full.len());
        assert_eq!(
            restrict(&projected, &keep),
            restrict(&full, &keep),
            "keep {:?}",
            keep.iter().map(|&p| paths.format(p)).collect::<Vec<_>>()
        );
    }
}

/// `T ⊨ Σ` as the conjunction of `check_tuples` over the full `tuples_D(T)`.
fn satisfied_on_full_relation(sigma: &XmlFdSet, doc: &XmlTree, dtd: &Dtd, paths: &PathSet) -> bool {
    let full = tuples_d(doc, dtd, paths).unwrap();
    sigma
        .resolve(paths)
        .unwrap()
        .iter()
        .all(|fd| fd.check_tuples(&full))
}

/// `T ⊨ S₁ ↠ S₂ | S₃` by the swap definition over the full `tuples_D(T)`:
/// for all `t₁, t₂` with `t₁.S₁ = t₂.S₁` and no `⊥` there, some `t₃` has
/// `t₁`'s `S₁` and `S₂` values and `t₂`'s `S₃` values.
fn mvd_on_full_relation(mvd: &XmlMvd, doc: &XmlTree, dtd: &Dtd, paths: &PathSet) -> bool {
    let full = tuples_d(doc, dtd, paths).unwrap();
    let ids =
        |side: &[Path]| -> Vec<PathId> { side.iter().map(|p| paths.resolve(p).unwrap()).collect() };
    let sides = [ids(&mvd.lhs), ids(&mvd.dep), ids(&mvd.indep)];
    let rows: BTreeSet<[Vec<Value>; 3]> = full
        .iter()
        .map(|t| {
            sides
                .each_ref()
                .map(|side| side.iter().map(|&p| t.get(p).clone()).collect())
        })
        .collect();
    rows.iter().all(|[l1, d1, _]| {
        l1.contains(&Value::Null)
            || rows
                .iter()
                .filter(|[l2, ..]| l2 == l1)
                .all(|[_, _, i2]| rows.contains(&[l1.clone(), d1.clone(), i2.clone()]))
    })
}

/// An MVD over 1–2 random paths per side.
fn random_mvd(paths: &PathSet, rng: &mut impl Rng) -> XmlMvd {
    let all: Vec<PathId> = paths.iter().collect();
    let mut side = || -> Vec<Path> {
        (0..rng.random_range(1..3usize))
            .map(|_| paths.path(all[rng.random_range(0..all.len())]))
            .collect()
    };
    let (lhs, dep, indep) = (side(), side(), side());
    XmlMvd::new(lhs, dep, indep).unwrap()
}

/// Every structural MVD `q ↠ subtree(a) | subtree(b)` of `paths`, for
/// element paths `q` with distinct element children `a` and `b`.
fn structural_mvds(paths: &PathSet) -> Vec<XmlMvd> {
    let mut out = Vec::new();
    for a in paths.iter().filter(|&p| paths.is_element_path(p)) {
        for b in paths.iter().filter(|&p| paths.is_element_path(p) && p > a) {
            if let (Some(q), true) = (paths.parent(a), paths.parent(a) == paths.parent(b)) {
                out.push(structural_mvd(paths, q, a, b).unwrap());
            }
        }
    }
    out
}

/// The paper's three specs with their example documents.
fn paper_fixtures() -> Vec<(Dtd, XmlFdSet, XmlTree)> {
    [
        (
            include_str!("../examples/specs/university.dtd"),
            include_str!("../examples/specs/university.fds"),
            include_str!("../examples/docs/university.xml"),
        ),
        (
            include_str!("../examples/specs/dblp.dtd"),
            include_str!("../examples/specs/dblp.fds"),
            include_str!("../examples/docs/dblp.xml"),
        ),
        (
            include_str!("../examples/specs/ebxml.dtd"),
            include_str!("../examples/specs/ebxml.fds"),
            include_str!("../examples/docs/ebxml.xml"),
        ),
    ]
    .into_iter()
    .map(|(dtd, fds, xml)| {
        (
            xnf::dtd::parse_dtd(dtd).unwrap(),
            XmlFdSet::parse(fds).unwrap(),
            xnf::xml::parse(xml).unwrap(),
        )
    })
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On generated documents (absent `*` children give `⊥` columns), the
    /// projection onto any `keep` equals `tuples_D(T)` restricted to it,
    /// and `T ⊨ Σ` decided on projections equals the check on the full
    /// relation.
    #[test]
    fn projection_equals_restricted_full_relation(seed in 0u64..100_000) {
        let mut rng = xnf_gen::rng(seed);
        let dtd = simple_dtd(
            &mut rng,
            &SimpleDtdParams { elements: 6, max_children: 3, max_attrs: 2, text_leaf_prob: 0.5 },
        );
        let doc = random_document(
            &dtd,
            &mut rng,
            &DocParams { reps: (0, 2), value_alphabet: 2, max_nodes: 150 },
        );
        prop_assume!(doc.num_nodes() < 150);
        let paths = dtd.paths().unwrap();
        prop_assume!(tuples_d(&doc, &dtd, &paths).unwrap().len() <= 256);
        assert_projection_exact(&doc, &dtd, &paths, &mut rng);
        let sigma = random_fds(&dtd, &mut rng, &FdParams { count: 6, max_lhs: 2 });
        prop_assert_eq!(
            sigma.satisfied_by(&doc, &dtd, &paths).unwrap(),
            satisfied_on_full_relation(&sigma, &doc, &dtd, &paths),
            "seed {seed}"
        );
    }

    /// The bounded window of a recursive DTD (`tuples_d_recursive`).
    #[test]
    fn projection_is_exact_on_a_recursive_window(seed in 0u64..100_000) {
        let mut rng = xnf_gen::rng(seed);
        let dtd = xnf::dtd::parse_dtd(
            "<!ELEMENT r (part*)>
             <!ELEMENT part (part*)>
             <!ATTLIST part id CDATA #IMPLIED owner CDATA #IMPLIED>",
        )
        .unwrap();
        let mut doc = XmlTree::new("r");
        let root = doc.root();
        grow_parts(&mut doc, root, 3, &mut rng);
        let (paths, full) = tuples_d_recursive(&doc, &dtd).unwrap();
        prop_assume!(full.len() <= 256);
        assert_projection_exact(&doc, &dtd, &paths, &mut rng);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On generated documents, MVD verdicts decided on the projection
    /// onto `S₁ ∪ S₂ ∪ S₃` equal the swap check over the full relation.
    #[test]
    fn mvd_verdicts_equal_the_swap_check_on_the_full_relation(seed in 0u64..100_000) {
        let mut rng = xnf_gen::rng(seed);
        let dtd = simple_dtd(
            &mut rng,
            &SimpleDtdParams { elements: 6, max_children: 3, max_attrs: 2, text_leaf_prob: 0.5 },
        );
        let doc = random_document(
            &dtd,
            &mut rng,
            &DocParams { reps: (0, 2), value_alphabet: 2, max_nodes: 150 },
        );
        prop_assume!(doc.num_nodes() < 150);
        let paths = dtd.paths().unwrap();
        prop_assume!(tuples_d(&doc, &dtd, &paths).unwrap().len() <= 256);
        let mut mvds = structural_mvds(&paths);
        mvds.extend((0..8).map(|_| random_mvd(&paths, &mut rng)));
        for mvd in &mvds {
            prop_assert_eq!(
                mvd.satisfied_by(&doc, &dtd, &paths).unwrap(),
                mvd_on_full_relation(mvd, &doc, &dtd, &paths),
                "seed {} mvd {}", seed, mvd
            );
        }
    }
}

/// Up to two `part` children per node, `depth` levels down, each with an
/// `@id`/`@owner` that is sometimes absent.
fn grow_parts(doc: &mut XmlTree, at: NodeId, depth: usize, rng: &mut impl Rng) {
    if depth == 0 {
        return;
    }
    for _ in 0..rng.random_range(0..3usize) {
        let part = doc.add_child(at, "part");
        for attr in ["id", "owner"] {
            if rng.random_ratio(3, 4) {
                doc.set_attr(part, attr, format!("v{}", rng.random_range(0..3usize)));
            }
        }
        grow_parts(doc, part, depth - 1, rng);
    }
}

#[test]
fn projection_is_exact_on_the_paper_documents() {
    let mut rng = xnf_gen::rng(7);
    for (dtd, sigma, doc) in paper_fixtures() {
        let paths = dtd.paths().unwrap();
        assert_projection_exact(&doc, &dtd, &paths, &mut rng);
        assert!(sigma.satisfied_by(&doc, &dtd, &paths).unwrap());
        assert!(satisfied_on_full_relation(&sigma, &doc, &dtd, &paths));
    }
}

#[test]
fn planted_violations_are_found_on_projections() {
    // Give one student of the university document a second name: FD3
    // (`@sno -> name.S`) fails. Then clone a course number: FD1 fails.
    let (dtd, sigma, doc) = paper_fixtures().swap_remove(0);
    let paths = dtd.paths().unwrap();
    let snos: Vec<NodeId> = doc
        .node_ids()
        .filter(|&v| doc.label(v) == "student")
        .collect();
    let mut bad_name = doc.clone();
    let sno = doc.attr(snos[0], "sno").unwrap().to_string();
    let other = snos[1];
    bad_name.set_attr(other, "sno", sno);
    let name = bad_name.children_labelled(other, "name")[0];
    bad_name.set_text(name, "a different name");
    let mut bad_course = doc.clone();
    let courses = bad_course.children_labelled(bad_course.root(), "course");
    let cno = bad_course.attr(courses[0], "cno").unwrap().to_string();
    bad_course.set_attr(courses[1], "cno", cno);
    for bad in [bad_name, bad_course] {
        assert!(!satisfied_on_full_relation(&sigma, &bad, &dtd, &paths));
        assert!(!sigma.satisfied_by(&bad, &dtd, &paths).unwrap());
        let per_fd: Vec<bool> = sigma
            .iter()
            .map(|fd| fd.satisfied_by(&bad, &dtd, &paths).unwrap())
            .collect();
        let full = tuples_d(&bad, &dtd, &paths).unwrap();
        let on_full: Vec<bool> = sigma
            .iter()
            .map(|fd| fd.resolve(&paths).unwrap().check_tuples(&full))
            .collect();
        assert_eq!(per_fd, on_full);
    }
}

#[test]
fn projection_sizes_stay_linear_on_the_decomposed_university_document() {
    // After the Figure-4 decomposition, `course*` and `info*` sit side by
    // side under the root, so the full tuples_D of the transformed
    // document is |students| × |info|. Undoing the create-element step
    // and checking Σ' must enumerate only the branches they read.
    let (dtd, sigma, _) = paper_fixtures().swap_remove(0);
    let result = normalize(&dtd, &sigma, &NormalizeOptions::default()).unwrap();
    let doc = xnf_gen::doc::university_document(32, 10, 320, 320);
    let transformed = transform_document(&dtd, &result, &doc).unwrap();
    let count = |label: &str| {
        transformed
            .node_ids()
            .filter(|&v| transformed.label(v) == label)
            .count() as u64
    };
    let (students, infos) = (count("student"), count("info"));
    assert_eq!((students, infos), (320, 227));
    let paths = result.dtd.paths().unwrap();
    assert_eq!(
        tuples_d(&transformed, &result.dtd, &paths).unwrap().len() as u64,
        students * infos,
        "the full relation is the product"
    );

    let before = tuples_enumerated();
    assert!(result
        .sigma
        .satisfied_by(&transformed, &result.dtd, &paths)
        .unwrap());
    let check = tuples_enumerated() - before;

    let (index, step) = result
        .steps
        .iter()
        .enumerate()
        .rfind(|(_, s)| matches!(s, Step::CreateElement { .. }))
        .unwrap();
    assert_eq!(
        index + 1,
        result.steps.len(),
        "create-element is the last step"
    );
    let before = tuples_enumerated();
    undo_step(&result.dtd, &transformed, step).unwrap();
    let undo = tuples_enumerated() - before;

    // One projection per FD path set: 32 courses, 320 students and
    // 3 × 227 info tuples for Σ'; one tuple per student for the undo.
    assert_eq!((check, undo), (1033, 320));
    let bound = result.sigma.len() as u64 * (students + infos);
    assert!(check <= bound && bound < students * infos);
    assert!(undo <= students);
}

#[test]
fn mvd_verdicts_equal_the_swap_check_on_the_paper_documents() {
    // Structural MVDs hold on every conforming document; random ones over
    // the paper documents both hold and fail.
    let mut rng = xnf_gen::rng(11);
    let (mut held, mut failed) = (0, 0);
    for (dtd, _, doc) in paper_fixtures() {
        let paths = dtd.paths().unwrap();
        for mvd in structural_mvds(&paths) {
            assert!(mvd.satisfied_by(&doc, &dtd, &paths).unwrap(), "{mvd}");
            assert!(mvd_on_full_relation(&mvd, &doc, &dtd, &paths), "{mvd}");
        }
        for _ in 0..40 {
            let mvd = random_mvd(&paths, &mut rng);
            let verdict = mvd.satisfied_by(&doc, &dtd, &paths).unwrap();
            assert_eq!(
                verdict,
                mvd_on_full_relation(&mvd, &doc, &dtd, &paths),
                "{mvd}"
            );
            if verdict {
                held += 1;
            } else {
                failed += 1;
            }
        }
    }
    assert!(held > 0 && failed > 0, "{held} held, {failed} failed");
}

#[test]
fn mvd_check_enumerates_only_its_projection_of_a_product_relation() {
    // The decomposed university document again: its full tuples_D is
    // |students| × |info|, but an MVD over the course branch reads one
    // tuple per student.
    let (dtd, sigma, _) = paper_fixtures().swap_remove(0);
    let result = normalize(&dtd, &sigma, &NormalizeOptions::default()).unwrap();
    let doc = xnf_gen::doc::university_document(32, 10, 320, 320);
    let transformed = transform_document(&dtd, &result, &doc).unwrap();
    let paths = result.dtd.paths().unwrap();
    let mvd: XmlMvd = "courses.course ->> courses.course.title.S | \
                       courses.course.taken_by.student.@sno"
        .parse()
        .unwrap();
    let before = tuples_enumerated();
    assert!(mvd.satisfied_by(&transformed, &result.dtd, &paths).unwrap());
    let enumerated = tuples_enumerated() - before;
    assert_eq!(enumerated, 320, "one tuple per student, not 320 × 227");
}
