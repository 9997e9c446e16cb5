//! The error surfaces are part of the public API: every variant renders a
//! actionable message and the `source` chains are wired. These tests pin
//! the contract (not exact wording everywhere, but the load-bearing
//! parts a user would grep for).

use std::error::Error as _;
use xnf::core::CoreError;
use xnf::dtd::DtdError;
use xnf::xml::XmlError;

#[test]
fn dtd_errors_render_usefully() {
    let cases: Vec<(DtdError, &str)> = vec![
        (
            DtdError::UndeclaredElement {
                name: "ghost".into(),
                referenced_by: "r".into(),
            },
            "ghost",
        ),
        (
            DtdError::DuplicateElement("a".into()),
            "declared more than once",
        ),
        (
            DtdError::DuplicateAttribute {
                element: "e".into(),
                attribute: "x".into(),
            },
            "@x",
        ),
        (
            DtdError::RootReferenced {
                referenced_by: "a".into(),
            },
            "Definition 1",
        ),
        (DtdError::AttlistForUndeclared("g".into()), "ATTLIST"),
        (
            DtdError::Syntax {
                offset: 42,
                at: xnf::dtd::LineCol { line: 3, col: 7 },
                message: "expected `>`".into(),
            },
            "line 3, column 7",
        ),
        (
            DtdError::syntax(b"<!ELEMENT r\n(", 12, "expected `>`"),
            "line 2, column 1",
        ),
        (
            DtdError::RecursiveDtd {
                witness: "part".into(),
            },
            "paths(D) is infinite",
        ),
        (DtdError::NoSuchPath("a.b".into()), "a.b"),
    ];
    for (err, needle) in cases {
        let msg = err.to_string();
        assert!(msg.contains(needle), "`{msg}` should mention `{needle}`");
    }
}

#[test]
fn xml_errors_render_usefully() {
    let syn = XmlError::Syntax {
        offset: 7,
        message: "mismatched closing tag".into(),
    };
    assert!(syn.to_string().contains("byte 7"));
    let mixed = XmlError::MixedContent {
        offset: 3,
        element: "p".into(),
    };
    assert!(mixed.to_string().contains("mixed content"));
    assert!(mixed.to_string().contains("`p`"));
}

#[test]
fn core_errors_render_and_chain() {
    let wrapped = CoreError::Dtd(DtdError::NoSuchPath("x.y".into()));
    assert!(wrapped.to_string().contains("x.y"));
    assert!(wrapped.source().is_some(), "source chain preserved");
    assert!(CoreError::NotCompatible.to_string().contains("paths(T)"));
    assert!(CoreError::EmptyFd.to_string().contains("non-empty"));
    assert!(CoreError::RecursiveNormalization
        .to_string()
        .contains("non-recursive"));
    assert!(CoreError::TooManySteps.to_string().contains("step limit"));
    assert!(CoreError::UnrepresentableNull {
        path: "p.@l".into()
    }
    .to_string()
    .contains("footnote 1"));
    assert!(CoreError::BadFdPath("weird".into())
        .to_string()
        .contains("weird"));
    assert!(CoreError::InconsistentTuples("why".into())
        .to_string()
        .contains("why"));
    assert!(CoreError::NotCompatible.source().is_none());
}

#[test]
fn errors_propagate_end_to_end() {
    // A recursive DTD flows out of normalize as a typed error.
    let d = xnf::dtd::parse_dtd("<!ELEMENT r (r2)> <!ELEMENT r2 (r2*)>").unwrap();
    let err = xnf::core::normalize(
        &d,
        &xnf::core::XmlFdSet::new(),
        &xnf::core::NormalizeOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(err, CoreError::RecursiveNormalization));

    // An unknown path in Σ flows out of the XNF test with its name.
    let d = xnf::dtd::parse_dtd("<!ELEMENT r EMPTY>").unwrap();
    let sigma = xnf::core::XmlFdSet::parse("r.ghost -> r").unwrap();
    let err = xnf::core::is_xnf(&d, &sigma).unwrap_err();
    assert!(err.to_string().contains("ghost"));
}

#[test]
fn scale_smoke_full_pipeline() {
    // A medium-scale end-to-end guard (not a bench): 60 courses, 5
    // students each — satisfaction, normalization, document transform,
    // round trip.
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
    .unwrap();
    let sigma = xnf::core::XmlFdSet::parse(xnf::core::fd::UNIVERSITY_FDS).unwrap();
    let doc = xnf_gen::doc::university_document(60, 5, 40, 8);
    let paths = dtd.paths().unwrap();
    assert!(xnf::xml::conforms(&doc, &dtd).is_ok());
    assert!(sigma.satisfied_by(&doc, &dtd, &paths).unwrap());
    let result =
        xnf::core::normalize(&dtd, &sigma, &xnf::core::NormalizeOptions::default()).unwrap();
    let (report, _) = xnf::core::lossless::verify_lossless(&dtd, &result, &doc).unwrap();
    assert!(report.ok());
    // 60 courses × 5 students = 300 tuples.
    assert_eq!(xnf::core::tuples_d(&doc, &dtd, &paths).unwrap().len(), 300);
}
