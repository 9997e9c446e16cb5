//! Seeded input generation. The program only ever sees these generated
//! sources: every spec and document is renamed by a seed-derived prefix.
//!
//! The renaming is exact: every element type gets the same fixed-length
//! prefix, so names keep their relative order and every source keeps its
//! byte length, and the program does the same work on every seed.

use std::collections::BTreeMap;

use xnf_core::{XmlFd, XmlFdSet};
use xnf_dtd::{Path, Step};
use xnf_xml::{NodeContent, NodeId, XmlTree};

use crate::util::Rng;

/// What a spec is, for its known-answer checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecKind {
    University,
    Dblp,
    Ebxml,
    /// `xnf_core::analyze::e22_family(k)`.
    E22(usize),
    /// `tests/data/pathological-general.*`.
    Pathological,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: String,
    pub kind: SpecKind,
    pub dtd: String,
    pub fds: String,
}

pub type Result<T> = std::result::Result<T, String>;

pub fn read(path: &str) -> Result<String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read `{path}` (run from the repository root): {e}"))
}

/// The base (unrenamed) sources of a spec kind.
pub fn base_sources(kind: SpecKind) -> Result<(String, String)> {
    let files = |stem: &str| -> Result<(String, String)> {
        Ok((read(&format!("{stem}.dtd"))?, read(&format!("{stem}.fds"))?))
    };
    match kind {
        SpecKind::University => files("examples/specs/university"),
        SpecKind::Dblp => files("examples/specs/dblp"),
        SpecKind::Ebxml => files("examples/specs/ebxml"),
        SpecKind::Pathological => files("tests/data/pathological-general"),
        SpecKind::E22(k) => {
            let (dtd, sigma) = xnf_core::analyze::e22_family(k);
            Ok((dtd.to_string(), sigma.to_string()))
        }
    }
}

/// A seed-derived element-name prefix of fixed length (`<3 letters>9_`).
pub fn prefix(rng: &mut Rng) -> String {
    format!("{}9_", rng.letters(3))
}

/// A prefix unique to `seq` within a run (for never-seen cache misses).
pub fn unique_prefix(tag: &str, seq: u64) -> String {
    let mut s = String::from(tag);
    let mut n = seq;
    for _ in 0..5 {
        s.push(char::from(b'a' + (n % 26) as u8));
        n /= 26;
    }
    s.push_str("8_");
    s
}

/// Prefixes every element type of `(D, Σ)` with `prefix`.
pub fn rename_spec(dtd_src: &str, fds_src: &str, prefix: &str) -> Result<(String, String)> {
    let mut dtd = xnf_dtd::parse_dtd(dtd_src).map_err(|e| e.to_string())?;
    let sigma = XmlFdSet::parse(fds_src).map_err(|e| e.to_string())?;
    let names: Vec<String> = dtd.elements().map(|e| dtd.name(e).to_string()).collect();
    let map: BTreeMap<String, String> = names
        .iter()
        .map(|n| (n.clone(), format!("{prefix}{n}")))
        .collect();
    for (old, new) in &map {
        if dtd.elem_id(new).is_some() {
            return Err(format!("renaming `{old}` to `{new}` would collide"));
        }
        dtd.rename_element(old, new).map_err(|e| e.to_string())?;
    }
    let fds: std::result::Result<Vec<XmlFd>, _> = sigma
        .iter()
        .map(|fd| {
            XmlFd::new(
                fd.lhs().iter().map(|p| rename_path(p, &map)),
                fd.rhs().iter().map(|p| rename_path(p, &map)),
            )
        })
        .collect();
    let sigma = XmlFdSet::from_fds(fds.map_err(|e| e.to_string())?);
    Ok((dtd.to_string(), sigma.to_string()))
}

fn rename_path(p: &Path, map: &BTreeMap<String, String>) -> Path {
    let renamed = |name: &str| map.get(name).map_or_else(|| name.to_string(), Clone::clone);
    let mut out: Option<Path> = None;
    for step in p.steps() {
        out = Some(match (out, step) {
            (None, Step::Elem(name)) => Path::root(renamed(name)),
            (Some(o), Step::Elem(name)) => o.child_elem(renamed(name)),
            (Some(o), Step::Attr(name)) => o.child_attr(name.clone()),
            (Some(o), Step::Text) => o.child_text(),
            (None, _) => unreachable!("paths start at the root element"),
        });
    }
    out.expect("paths are non-empty")
}

/// Prefixes every element label of `tree` with `prefix`.
pub fn rename_tree(tree: &XmlTree, prefix: &str) -> XmlTree {
    fn copy(src: &XmlTree, from: NodeId, dst: &mut XmlTree, to: NodeId, prefix: &str) {
        for (name, value) in src.attrs(from) {
            dst.set_attr(to, name, value);
        }
        match src.content(from) {
            NodeContent::Text(t) => dst.set_text(to, t.clone()),
            NodeContent::Children(children) => {
                for &c in children {
                    let label = format!("{prefix}{}", src.label(c));
                    let id = dst.add_child(to, label);
                    copy(src, c, dst, id, prefix);
                }
            }
        }
    }
    let mut out = XmlTree::new(format!("{prefix}{}", tree.label(tree.root())));
    let root = out.root();
    copy(tree, tree.root(), &mut out, root, prefix);
    out
}

/// Builds the spec list of `kinds`, each renamed by its own prefix drawn
/// from `rng`.
pub fn renamed_specs(kinds: &[SpecKind], rng: &mut Rng) -> Result<Vec<Spec>> {
    kinds
        .iter()
        .map(|&kind| {
            let (dtd, fds) = base_sources(kind)?;
            let (dtd, fds) = rename_spec(&dtd, &fds, &prefix(rng))?;
            Ok(Spec {
                name: kind_name(kind),
                kind,
                dtd,
                fds,
            })
        })
        .collect()
}

pub fn kind_name(kind: SpecKind) -> String {
    match kind {
        SpecKind::University => "university".into(),
        SpecKind::Dblp => "dblp".into(),
        SpecKind::Ebxml => "ebxml".into(),
        SpecKind::E22(k) => format!("e22-k{k}"),
        SpecKind::Pathological => "pathological".into(),
    }
}
