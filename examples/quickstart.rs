//! Quickstart: the paper's running example end to end (Example 1.1 /
//! 5.1 and Figure 1).
//!
//! 1. Parse the university DTD and the Figure 1(a) document.
//! 2. State the FDs (FD1)–(FD3) and check them on the document.
//! 3. Detect the XNF violation caused by (FD3).
//! 4. Run the Figure 4 decomposition algorithm.
//! 5. Rename the fresh elements to the paper's names (`info`, `number`)
//!    and print the revised DTD of Figure 1(b).
//! 6. Transform the document and verify losslessness.
//!
//! Run with: `cargo run --example quickstart`

use xnf::core::lossless::{transform_document, verify_lossless};
use xnf::core::normalize::rename_element;
use xnf::core::{anomalous_fds, is_xnf, normalize, NormalizeOptions, XmlFdSet};

fn main() {
    // -- 1. The schema and document of Figure 1(a). --------------------
    let dtd = xnf::dtd::parse_dtd(
        "<!ELEMENT courses (course*)>
         <!ELEMENT course (title, taken_by)>
         <!ATTLIST course cno CDATA #REQUIRED>
         <!ELEMENT title (#PCDATA)>
         <!ELEMENT taken_by (student*)>
         <!ELEMENT student (name, grade)>
         <!ATTLIST student sno CDATA #REQUIRED>
         <!ELEMENT name (#PCDATA)>
         <!ELEMENT grade (#PCDATA)>",
    )
    .expect("the university DTD parses");

    let doc = xnf::xml::parse(
        r#"<courses>
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
        </courses>"#,
    )
    .expect("the Figure 1(a) document parses");
    assert!(xnf::xml::conforms(&doc, &dtd).is_ok());

    // -- 2. The FDs of Example 4.1. -------------------------------------
    let sigma = XmlFdSet::parse(
        "# (FD1) cno is a key of course
         courses.course.@cno -> courses.course
         # (FD2) no two students of one course share an sno
         courses.course, courses.course.taken_by.student.@sno -> courses.course.taken_by.student
         # (FD3) sno determines the student name — the redundancy!
         courses.course.taken_by.student.@sno -> courses.course.taken_by.student.name.S",
    )
    .expect("the FDs parse");

    let paths = dtd.paths().expect("the DTD is not recursive");
    assert!(sigma
        .satisfied_by(&doc, &dtd, &paths)
        .expect("paths resolve"));
    println!("document conforms to the DTD and satisfies (FD1)-(FD3)\n");

    // -- 3. The XNF violation of Example 5.1. ---------------------------
    assert!(!is_xnf(&dtd, &sigma).expect("XNF test runs"));
    for v in anomalous_fds(&dtd, &sigma).expect("XNF test runs") {
        println!("anomalous FD: {}", v.fd);
    }

    // -- 4. Normalize (Figure 4). ----------------------------------------
    let mut result =
        normalize(&dtd, &sigma, &NormalizeOptions::default()).expect("normalization succeeds");
    println!("\nalgorithm steps:");
    for step in &result.steps {
        println!("  {step:?}");
    }

    // -- 5. Match the paper's names and print Figure 1(b)'s DTD. --------
    // The algorithm picks fresh names (`sno_ref`); the paper's figure
    // calls that element `number`.
    rename_element(&mut result.dtd, &mut result.sigma, "sno_ref", "number")
        .expect("rename succeeds");
    println!("\nrevised DTD (Figure 1(b)):\n{}", result.dtd);
    println!("revised FDs:\n{}", result.sigma);
    assert!(is_xnf(&result.dtd, &result.sigma).expect("XNF test runs"));

    // -- 6. Transform the document and verify losslessness. -------------
    // (Replay uses the *original* step names, so transform first, then
    // compare against the renamed DTD only structurally.)
    let mut pre_rename =
        normalize(&dtd, &sigma, &NormalizeOptions::default()).expect("normalization succeeds");
    let transformed = transform_document(&dtd, &pre_rename, &doc).expect("transform succeeds");
    println!(
        "transformed document:\n{}",
        xnf::xml::to_string_pretty(&transformed)
    );
    let (report, _) = verify_lossless(&dtd, &pre_rename, &doc).expect("verification runs");
    assert!(report.ok(), "losslessness verified: {report:?}");
    println!("losslessness verified: conforms + satisfies Σ' + round-trips");

    // The renamed DTD is exactly the paper's revision.
    rename_element(
        &mut pre_rename.dtd,
        &mut pre_rename.sigma,
        "sno_ref",
        "number",
    )
    .expect("rename succeeds");
    let figure_1b = xnf::dtd::parse_dtd(
        "<!ELEMENT courses (course*, info*)>
         <!ELEMENT course (title, taken_by)>
         <!ATTLIST course cno CDATA #REQUIRED>
         <!ELEMENT title (#PCDATA)>
         <!ELEMENT taken_by (student*)>
         <!ELEMENT student (grade)>
         <!ATTLIST student sno CDATA #REQUIRED>
         <!ELEMENT grade (#PCDATA)>
         <!ELEMENT info (number*)>
         <!ATTLIST info name CDATA #REQUIRED>
         <!ELEMENT number EMPTY>
         <!ATTLIST number sno CDATA #REQUIRED>",
    )
    .expect("the Figure 1(b) DTD parses");
    // Same element types, contents and attributes (the paper presents
    // `name` as a #PCDATA child of info; the formal construction—and this
    // implementation—makes it an attribute, cf. Section 6).
    for e in figure_1b.elements() {
        let name = figure_1b.name(e);
        let ours = pre_rename
            .dtd
            .elem_id(name)
            .unwrap_or_else(|| panic!("missing element {name}"));
        assert_eq!(
            figure_1b.content(e),
            pre_rename.dtd.content(ours),
            "content of {name}"
        );
        assert_eq!(
            figure_1b.attrs(e).collect::<Vec<_>>(),
            pre_rename.dtd.attrs(ours).collect::<Vec<_>>(),
            "attributes of {name}"
        );
    }
    println!("revised DTD matches Figure 1(b) exactly (with name as an attribute of info)");
}
