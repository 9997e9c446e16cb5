//! End-to-end reproduction of the paper's worked examples, spanning all
//! crates (experiment index E1, E2, E6 in DESIGN.md).

use xnf::core::lossless::{restore_document, transform_document, verify_lossless};
use xnf::core::{
    anomalous_fds, is_xnf, normalize, trees_d, tuples_d, NormalizeOptions, Step, XmlFdSet,
};

const UNIVERSITY_DTD: &str = "<!ELEMENT courses (course*)>
<!ELEMENT course (title, taken_by)>
<!ATTLIST course cno CDATA #REQUIRED>
<!ELEMENT title (#PCDATA)>
<!ELEMENT taken_by (student*)>
<!ELEMENT student (name, grade)>
<!ATTLIST student sno CDATA #REQUIRED>
<!ELEMENT name (#PCDATA)>
<!ELEMENT grade (#PCDATA)>";

const FIGURE_1A: &str = r#"<courses>
  <course cno="csc200">
    <title>Automata Theory</title>
    <taken_by>
      <student sno="st1"><name>Deere</name><grade>A+</grade></student>
      <student sno="st2"><name>Smith</name><grade>B-</grade></student>
    </taken_by>
  </course>
  <course cno="mat100">
    <title>Calculus I</title>
    <taken_by>
      <student sno="st1"><name>Deere</name><grade>A-</grade></student>
      <student sno="st3"><name>Smith</name><grade>B+</grade></student>
    </taken_by>
  </course>
</courses>"#;

const DBLP_DTD: &str = "<!ELEMENT db (conf*)>
<!ELEMENT conf (title, issue+)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT issue (inproceedings+)>
<!ELEMENT inproceedings (author+, title, booktitle)>
<!ATTLIST inproceedings key CDATA #REQUIRED pages CDATA #REQUIRED year CDATA #REQUIRED>
<!ELEMENT author (#PCDATA)>
<!ELEMENT booktitle (#PCDATA)>";

#[test]
fn e1_university_full_pipeline() {
    let dtd = xnf::dtd::parse_dtd(UNIVERSITY_DTD).unwrap();
    let doc = xnf::xml::parse(FIGURE_1A).unwrap();
    assert!(xnf::xml::conforms(&doc, &dtd).is_ok());

    let sigma = XmlFdSet::parse(xnf::core::fd::UNIVERSITY_FDS).unwrap();
    let paths = dtd.paths().unwrap();
    assert!(sigma.satisfied_by(&doc, &dtd, &paths).unwrap());

    // Not in XNF; exactly one anomalous FD (FD3).
    assert!(!is_xnf(&dtd, &sigma).unwrap());
    let violations = anomalous_fds(&dtd, &sigma).unwrap();
    assert_eq!(violations.len(), 1);

    // Normalize: fold name.S, then create the info structure.
    let result = normalize(&dtd, &sigma, &NormalizeOptions::default()).unwrap();
    assert!(is_xnf(&result.dtd, &result.sigma).unwrap());
    assert!(matches!(result.steps[0], Step::FoldText { .. }));
    assert!(matches!(result.steps[1], Step::CreateElement { .. }));

    // Documents transform losslessly; the info grouping matches
    // Figure 1(b) (Deere: {st1}; Smith: {st2, st3}).
    let (report, _) = verify_lossless(&dtd, &result, &doc).unwrap();
    assert!(report.ok());
    let transformed = transform_document(&dtd, &result, &doc).unwrap();
    let infos = transformed.children_labelled(transformed.root(), "info");
    assert_eq!(infos.len(), 2);
    let restored = restore_document(&result, &transformed).unwrap();
    assert!(xnf::xml::unordered_eq(&restored, &doc));
}

#[test]
fn e2_tree_tuples_of_figure_1a() {
    let dtd = xnf::dtd::parse_dtd(UNIVERSITY_DTD).unwrap();
    let doc = xnf::xml::parse(FIGURE_1A).unwrap();
    let paths = dtd.paths().unwrap();
    let tuples = tuples_d(&doc, &dtd, &paths).unwrap();
    assert_eq!(tuples.len(), 4, "2 courses × 2 students");
    // Theorem 1: the document is reconstructible from its tuples.
    let rebuilt = trees_d(&tuples, &paths).unwrap();
    assert!(xnf::xml::unordered_eq(&rebuilt, &doc));
    // Figure 2: the tuple for (csc200, st1) carries the expected values.
    let cno = paths.resolve_str("courses.course.@cno").unwrap();
    let sno = paths
        .resolve_str("courses.course.taken_by.student.@sno")
        .unwrap();
    let name_s = paths
        .resolve_str("courses.course.taken_by.student.name.S")
        .unwrap();
    let grade_s = paths
        .resolve_str("courses.course.taken_by.student.grade.S")
        .unwrap();
    let fig2 = tuples
        .iter()
        .find(|t| {
            t.get(cno) == &xnf::relational::Value::str("csc200")
                && t.get(sno) == &xnf::relational::Value::str("st1")
        })
        .expect("the Figure 2 tuple exists");
    assert_eq!(fig2.get(name_s), &xnf::relational::Value::str("Deere"));
    assert_eq!(fig2.get(grade_s), &xnf::relational::Value::str("A+"));
}

#[test]
fn e6_dblp_full_pipeline() {
    let dtd = xnf::dtd::parse_dtd(DBLP_DTD).unwrap();
    let sigma = XmlFdSet::parse(xnf::core::fd::DBLP_FDS).unwrap();
    assert!(!is_xnf(&dtd, &sigma).unwrap());
    let result = normalize(&dtd, &sigma, &NormalizeOptions::default()).unwrap();
    // Exactly the paper's fix: one attribute move, revised ATTLISTs.
    assert_eq!(result.steps.len(), 1);
    let issue = result.dtd.elem_id("issue").unwrap();
    assert_eq!(result.dtd.attrs(issue).collect::<Vec<_>>(), vec!["year"]);
    let inproc = result.dtd.elem_id("inproceedings").unwrap();
    assert_eq!(
        result.dtd.attrs(inproc).collect::<Vec<_>>(),
        vec!["key", "pages"]
    );
    assert!(is_xnf(&result.dtd, &result.sigma).unwrap());

    // Losslessness on a scaled synthetic DBLP corpus.
    for (confs, issues, papers) in [(1, 1, 1), (2, 3, 4), (5, 2, 6)] {
        let doc = xnf_gen::doc::dblp_document(confs, issues, papers);
        let (report, _) = verify_lossless(&dtd, &result, &doc).unwrap();
        assert!(report.ok(), "confs={confs} issues={issues} papers={papers}");
    }
}

#[test]
fn e1_university_scaled_losslessness() {
    let dtd = xnf::dtd::parse_dtd(UNIVERSITY_DTD).unwrap();
    let sigma = XmlFdSet::parse(xnf::core::fd::UNIVERSITY_FDS).unwrap();
    let result = normalize(&dtd, &sigma, &NormalizeOptions::default()).unwrap();
    let paths = dtd.paths().unwrap();
    for (courses, students, pool, names) in [(1, 1, 1, 1), (4, 3, 6, 2), (8, 5, 10, 4)] {
        let doc = xnf_gen::doc::university_document(courses, students, pool, names);
        assert!(sigma.satisfied_by(&doc, &dtd, &paths).unwrap());
        let (report, _) = verify_lossless(&dtd, &result, &doc).unwrap();
        assert!(
            report.ok(),
            "{courses}/{students}/{pool}/{names}: {report:?}"
        );
    }
}

#[test]
fn sigma_only_variant_is_lossless_too() {
    // Proposition 7's simplified algorithm on the university example.
    let dtd = xnf::dtd::parse_dtd(UNIVERSITY_DTD).unwrap();
    let sigma = XmlFdSet::parse(xnf::core::fd::UNIVERSITY_FDS).unwrap();
    let opts = NormalizeOptions {
        use_implication: false,
        ..NormalizeOptions::default()
    };
    let result = normalize(&dtd, &sigma, &opts).unwrap();
    assert!(is_xnf(&result.dtd, &result.sigma).unwrap());
    let doc = xnf::xml::parse(FIGURE_1A).unwrap();
    let (report, _) = verify_lossless(&dtd, &result, &doc).unwrap();
    assert!(report.ok(), "{report:?}");
}
