//! The executable losslessness oracle on whole specs.
//!
//! For a spec `(D, Σ)` the oracle runs the Figure 4 decomposition once and
//! then checks, on `docs` generated conforming documents `T ⊨ (D, Σ)`:
//!
//! 1. **conformance + Σ'** — the transformed document conforms to the
//!    revised DTD and satisfies the revised Σ (the two side conditions of
//!    Proposition 8);
//! 2. **round trip** — the inverse transformation reconstructs `T` up to
//!    unordered-tree equivalence (the commuting `tuples_D` diagram of
//!    Section 6, realized constructively);
//! 3. **projection** — independently of the core tuple machinery, the
//!    [`xnf_xml::value_projection`] of the reconstructed document equals
//!    the original's (information preservation seen purely from the
//!    document side);
//!
//! 4. **shred round trip** — the document shreds into relational rows
//!    under the *original* spec and rebuilds exactly (ordered structural
//!    equality), an independent witness that the relational encoding of
//!    the tree-tuple machinery loses nothing;
//!
//! plus, once per spec, `is_xnf(normalize(D, Σ))` — the output really is
//! in XNF — and the differential Proposition 4 check: the normalized
//! output compiles to a relational design whose every table is BCNF
//! under its Σ'-derived FDs.

use xnf_core::lossless::{verify_lossless, verify_lossless_trace};
use xnf_core::normalize::{normalize, NormalizeOptions, NormalizeResult};
use xnf_core::shred::ShredSchema;
use xnf_core::{CoreError, XmlFdSet};
use xnf_dtd::Dtd;
use xnf_gen::doc::{satisfying_documents, DocParams};
use xnf_govern::Budget;
use xnf_xml::{ordered_eq, value_projection};

/// Configuration for [`check_spec`].
#[derive(Debug, Clone)]
pub struct SpecOracleConfig {
    /// Number of Σ-satisfying documents to check (the acceptance bar of
    /// `xnf-tool verify` is ≥ 100).
    pub docs: usize,
    /// Base RNG seed for document generation.
    pub seed: u64,
    /// Generation parameters for each candidate document.
    pub doc_params: DocParams,
    /// Cap on generation attempts (rejection sampling) across the run.
    pub max_attempts: usize,
    /// Resource budget for the normalization run and the per-document
    /// checks. Exhaustion surfaces as [`CoreError::Exhausted`] from
    /// [`check_spec`] — never as a passing report.
    pub budget: Budget,
}

impl Default for SpecOracleConfig {
    fn default() -> Self {
        SpecOracleConfig {
            docs: 100,
            seed: 0xA1,
            doc_params: DocParams {
                reps: (0, 3),
                value_alphabet: 3,
                max_nodes: 400,
            },
            max_attempts: 2_000,
            budget: Budget::unlimited(),
        }
    }
}

/// One failed document check (see [`SpecOracleReport::failures`]).
#[derive(Debug, Clone)]
pub struct DocFailure {
    /// Index of the document in the generated sequence.
    pub doc_index: usize,
    /// What went wrong, with the per-step trace when one was obtainable.
    pub detail: String,
}

/// The outcome of [`check_spec`] on one spec.
#[derive(Debug, Clone)]
pub struct SpecOracleReport {
    /// `is_xnf` holds on the normalization output.
    pub output_is_xnf: bool,
    /// The normalized output's shred schema has only BCNF tables (the
    /// executable direction of the Proposition 4 correspondence). Checked
    /// differentially against [`output_is_xnf`]: the two verdicts must
    /// agree.
    ///
    /// [`output_is_xnf`]: SpecOracleReport::output_is_xnf
    pub shred_tables_bcnf: bool,
    /// The non-BCNF tables with their violating FDs (as XML FDs over the
    /// revised DTD where representable), when that check failed.
    pub shred_violations: Vec<String>,
    /// Number of transformation steps the decomposition took.
    pub steps: usize,
    /// Documents requested by the configuration.
    pub docs_requested: usize,
    /// Documents actually generated and checked.
    pub docs_checked: usize,
    /// Documents skipped because the transformation hit a documented
    /// unrepresentable-null case (Section 6, footnote 1: a value required
    /// by the revised schema is `⊥` in the instance).
    pub docs_skipped: usize,
    /// Per-document losslessness/projection failures.
    pub failures: Vec<DocFailure>,
}

impl SpecOracleReport {
    /// Whether the spec passed every check.
    pub fn ok(&self) -> bool {
        self.output_is_xnf && self.shred_tables_bcnf && self.failures.is_empty()
    }

    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "xnf output check: {}\n",
            if self.output_is_xnf { "PASS" } else { "FAIL" }
        ));
        out.push_str(&format!(
            "shred schema BCNF check: {}\n",
            if self.shred_tables_bcnf {
                "PASS"
            } else {
                "FAIL"
            }
        ));
        for v in &self.shred_violations {
            out.push_str(&format!("  {v}\n"));
        }
        out.push_str(&format!(
            "losslessness: {} / {} documents checked ({} skipped on \
             unrepresentable nulls), {} failure(s)\n",
            self.docs_checked,
            self.docs_requested,
            self.docs_skipped,
            self.failures.len()
        ));
        for f in &self.failures {
            out.push_str(&format!("  doc {}: {}\n", f.doc_index, f.detail));
        }
        out
    }
}

/// Runs the losslessness oracle on `(D, Σ)`; see the module docs.
///
/// Errors only on spec-level problems (unresolvable Σ, recursive DTD, …);
/// per-document findings land in the report.
pub fn check_spec(
    dtd: &Dtd,
    sigma: &XmlFdSet,
    config: &SpecOracleConfig,
) -> Result<SpecOracleReport, CoreError> {
    let options = NormalizeOptions {
        budget: config.budget.clone(),
        ..NormalizeOptions::default()
    };
    let normalize_span = config.budget.recorder().span("oracle.normalize", "oracle");
    let result = normalize(dtd, sigma, &options)?;
    drop(normalize_span);
    if let Some(e) = result.exhausted {
        // A partial decomposition is useless to the oracle — there is no
        // final design to verify against. Surface the exhaustion instead
        // of reporting on a non-final result.
        return Err(CoreError::Exhausted(e));
    }
    let xnf_span = config
        .budget
        .recorder()
        .span("oracle.certify_xnf", "oracle");
    let output_is_xnf = xnf_core::is_xnf_governed(&result.dtd, &result.sigma, &config.budget)?;
    drop(xnf_span);
    // Differential Proposition 4 check: the normalized output must shred
    // to an all-BCNF relational design, and the verdict must agree with
    // `is_xnf` above. The *input* spec compiles too — its schema backs the
    // per-document shred round trip below.
    let shred_span = config.budget.recorder().span("oracle.shred", "oracle");
    let output_schema = xnf_core::compile_schema(&result.dtd, &result.sigma, &config.budget)?;
    let shred_violations: Vec<String> = output_schema
        .non_bcnf_tables()
        .into_iter()
        .map(|(ix, name, fd)| {
            let rendered = output_schema
                .violation_as_xml_fd(ix, &fd)
                .map_or_else(|| fd.to_string(), |xfd| xfd.to_string());
            format!("table `{name}` is not BCNF: {rendered}")
        })
        .collect();
    let input_schema = xnf_core::compile_schema(dtd, sigma, &config.budget)?;
    drop(shred_span);
    let gen_span = config
        .budget
        .recorder()
        .span("oracle.generate_docs", "oracle");
    let mut rng = xnf_gen::rng(config.seed);
    let docs = satisfying_documents(
        dtd,
        sigma,
        &mut rng,
        &config.doc_params,
        config.docs,
        config.max_attempts,
    );
    drop(gen_span);
    let mut report = SpecOracleReport {
        output_is_xnf,
        shred_tables_bcnf: shred_violations.is_empty(),
        shred_violations,
        steps: result.steps.len(),
        docs_requested: config.docs,
        docs_checked: 0,
        docs_skipped: 0,
        failures: Vec::new(),
    };
    let _check_span = config.budget.recorder().span("oracle.check_docs", "oracle");
    for (doc_index, doc) in docs.iter().enumerate() {
        config.budget.checkpoint("oracle.doc")?;
        let mut verdict = check_document(dtd, &result, doc);
        if matches!(verdict, DocVerdict::Pass) {
            verdict = check_shred_round_trip(&input_schema, doc, &config.budget)?;
        }
        match verdict {
            DocVerdict::Pass => report.docs_checked += 1,
            DocVerdict::Skip => report.docs_skipped += 1,
            DocVerdict::Fail(detail) => {
                report.docs_checked += 1;
                report.failures.push(DocFailure { doc_index, detail });
            }
        }
    }
    Ok(report)
}

/// The stage-4 check: shred `doc` into rows under the input spec's schema
/// and rebuild it; the result must be *exactly* the input (ordered
/// structural equality — the `pos` column preserves document order), and
/// the value projections must agree. Only exhaustion propagates as an
/// error; everything else is a per-document finding.
fn check_shred_round_trip(
    schema: &ShredSchema,
    doc: &xnf_xml::XmlTree,
    budget: &Budget,
) -> Result<DocVerdict, CoreError> {
    let outcome = xnf_core::shred_document(schema, doc, budget)
        .and_then(|rows| xnf_core::unshred_document(schema, &rows, budget));
    match outcome {
        Ok(rebuilt) => {
            if !ordered_eq(doc, &rebuilt) {
                Ok(DocVerdict::Fail(
                    "shred round trip altered the document".into(),
                ))
            } else if value_projection(&rebuilt) != value_projection(doc) {
                Ok(DocVerdict::Fail(
                    "shred round trip lost document values".into(),
                ))
            } else {
                Ok(DocVerdict::Pass)
            }
        }
        Err(CoreError::Exhausted(e)) => Err(CoreError::Exhausted(e)),
        Err(e) => Ok(DocVerdict::Fail(format!("shred round trip error: {e}"))),
    }
}

enum DocVerdict {
    Pass,
    Skip,
    Fail(String),
}

fn check_document(dtd: &Dtd, result: &NormalizeResult, doc: &xnf_xml::XmlTree) -> DocVerdict {
    let transformed = match verify_lossless(dtd, result, doc) {
        Ok((report, transformed)) if report.ok() => transformed,
        Ok((report, _)) => {
            // Localize the first offending step for the failure report.
            let trace = match verify_lossless_trace(dtd, result, doc) {
                Ok(trace) => trace
                    .iter()
                    .find(|s| !s.ok())
                    .map(|s| format!("; first failing step: {s:?}"))
                    .unwrap_or_default(),
                Err(e) => format!("; trace unavailable: {e}"),
            };
            return DocVerdict::Fail(format!("losslessness violated: {report:?}{trace}"));
        }
        Err(CoreError::UnrepresentableNull { .. }) => return DocVerdict::Skip,
        Err(e) => return DocVerdict::Fail(format!("transformation error: {e}")),
    };
    // Independent projection check: restore the verified transform and
    // compare the document-side value projections.
    match xnf_core::restore_document(result, &transformed) {
        Ok(restored) => {
            if value_projection(&restored) == value_projection(doc) {
                DocVerdict::Pass
            } else {
                DocVerdict::Fail("value projection not preserved by round trip".into())
            }
        }
        Err(CoreError::UnrepresentableNull { .. }) => DocVerdict::Skip,
        Err(e) => DocVerdict::Fail(format!("round-trip error: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const UNIVERSITY_DTD: &str = "<!ELEMENT courses (course*)>
         <!ELEMENT course (title, taken_by)>
         <!ATTLIST course cno CDATA #REQUIRED>
         <!ELEMENT title (#PCDATA)>
         <!ELEMENT taken_by (student*)>
         <!ELEMENT student (name, grade)>
         <!ATTLIST student sno CDATA #REQUIRED>
         <!ELEMENT name (#PCDATA)>
         <!ELEMENT grade (#PCDATA)>";

    #[test]
    fn university_spec_passes_the_oracle() {
        let dtd = xnf_dtd::parse_dtd(UNIVERSITY_DTD).unwrap();
        let sigma = XmlFdSet::parse(xnf_core::fd::UNIVERSITY_FDS).unwrap();
        let config = SpecOracleConfig {
            docs: 25,
            ..SpecOracleConfig::default()
        };
        let report = check_spec(&dtd, &sigma, &config).unwrap();
        assert!(report.ok(), "{}", report.render());
        assert!(report.docs_checked > 0, "{}", report.render());
    }

    #[test]
    fn oracle_rejects_a_broken_round_trip() {
        // Sanity: the oracle is not vacuously green. Feed it a result whose
        // recorded steps were tampered with (the revised DTD no longer
        // matches the step list) and expect failures.
        let dtd = xnf_dtd::parse_dtd(UNIVERSITY_DTD).unwrap();
        let sigma = XmlFdSet::parse(xnf_core::fd::UNIVERSITY_FDS).unwrap();
        let mut result = normalize(&dtd, &sigma, &xnf_core::NormalizeOptions::default()).unwrap();
        result.steps.pop();
        let doc = xnf_gen::doc::university_document(4, 3, 6, 3);
        let verdict = check_document(&dtd, &result, &doc);
        assert!(
            !matches!(verdict, DocVerdict::Pass),
            "tampered result must not pass"
        );
    }
}
