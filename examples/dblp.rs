//! The DBLP example (Example 1.2 / 5.2): a hierarchical redundancy fixed
//! by *moving an attribute* — `@year` moves from `inproceedings` to
//! `issue`.
//!
//! Run with: `cargo run --example dblp`

use xnf::core::lossless::verify_lossless;
use xnf::core::{anomalous_fds, is_xnf, normalize, NormalizeOptions, Step, XmlFdSet};

fn main() {
    let dtd = xnf::dtd::parse_dtd(
        "<!ELEMENT db (conf*)>
         <!ELEMENT conf (title, issue+)>
         <!ELEMENT title (#PCDATA)>
         <!ELEMENT issue (inproceedings+)>
         <!ELEMENT inproceedings (author+, title, booktitle)>
         <!ATTLIST inproceedings
             key CDATA #REQUIRED
             pages CDATA #REQUIRED
             year CDATA #REQUIRED>
         <!ELEMENT author (#PCDATA)>
         <!ELEMENT booktitle (#PCDATA)>",
    )
    .expect("the DBLP DTD parses");

    // (FD4): a conference is identified by its title. (FD5): all papers
    // in one issue share the year — the *relative* dependency that makes
    // year redundant.
    let sigma = XmlFdSet::parse(
        "db.conf.title.S -> db.conf
         db.conf.issue -> db.conf.issue.inproceedings.@year",
    )
    .expect("the FDs parse");

    assert!(!is_xnf(&dtd, &sigma).expect("XNF test runs"));
    println!("XNF violations:");
    for v in anomalous_fds(&dtd, &sigma).expect("XNF test runs") {
        println!("  {} (anomalous path {})", v.fd, v.path);
    }

    let result =
        normalize(&dtd, &sigma, &NormalizeOptions::default()).expect("normalization succeeds");
    // The paper's fix is a single attribute move: year becomes an
    // attribute of issue.
    assert_eq!(result.steps.len(), 1);
    assert!(matches!(
        &result.steps[0],
        Step::MoveAttribute { new_attr, .. } if new_attr == "year"
    ));
    println!("\nstep: {:?}", result.steps[0]);
    println!(
        "\nrevised DTD (the paper's ATTLIST change):\n{}",
        result.dtd
    );
    assert!(is_xnf(&result.dtd, &result.sigma).expect("XNF test runs"));

    // Apply the fix to a document and confirm nothing is lost.
    let doc = xnf::xml::parse(
        r#"<db>
          <conf>
            <title>PODS</title>
            <issue>
              <inproceedings key="FanL01" pages="114-125" year="2001">
                <author>Wenfei Fan</author><author>Leonid Libkin</author>
                <title>On XML integrity constraints in the presence of DTDs</title>
                <booktitle>PODS 2001</booktitle>
              </inproceedings>
              <inproceedings key="BunemanDFHT01" pages="126-137" year="2001">
                <author>Peter Buneman</author>
                <title>Reasoning about keys for XML</title>
                <booktitle>DBPL 2001</booktitle>
              </inproceedings>
            </issue>
            <issue>
              <inproceedings key="ArenasL02" pages="85-96" year="2002">
                <author>Marcelo Arenas</author><author>Leonid Libkin</author>
                <title>A normal form for XML documents</title>
                <booktitle>PODS 2002</booktitle>
              </inproceedings>
            </issue>
          </conf>
        </db>"#,
    )
    .expect("the document parses");
    let paths = dtd.paths().expect("non-recursive");
    assert!(sigma.satisfied_by(&doc, &dtd, &paths).expect("resolves"));

    let (report, transformed) = verify_lossless(&dtd, &result, &doc).expect("verification runs");
    println!(
        "transformed document:\n{}",
        xnf::xml::to_string_pretty(&transformed)
    );
    assert!(report.ok(), "{report:?}");
    println!("losslessness verified (year stored once per issue, reconstructible per paper)");
}
