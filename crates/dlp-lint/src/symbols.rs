//! Workspace symbol table: every function the parser found in the sim
//! tier, indexed for the call-graph's resolution queries.
//!
//! Resolution here is *name-based*, not type-based — the linter has no
//! type inference. That is sound for this workspace because the sim
//! tier's method names are near-unique (verified by the workspace
//! self-check staying clean); where a name is ambiguous the graph
//! simply over-approximates, which for lint purposes errs on the side
//! of reporting.

use crate::parser::{FileAst, FnDef};
use std::collections::HashMap;

/// A function's location in the workspace: `(file index, fn index)`
/// into [`Symbols::files`] / [`FileAst::fns`].
pub type FnId = (usize, usize);

/// The symbol table over a set of parsed files.
pub struct Symbols<'a> {
    /// The parsed files, parallel to the `rel` paths in [`Self::rels`].
    pub files: Vec<&'a FileAst>,
    /// Workspace-relative path of each file.
    pub rels: Vec<&'a str>,
    by_name: HashMap<&'a str, Vec<FnId>>,
    by_ty_name: HashMap<(&'a str, &'a str), Vec<FnId>>,
}

impl<'a> Symbols<'a> {
    /// Build the table over `(rel_path, ast)` pairs.
    pub fn build(files: &[(&'a str, &'a FileAst)]) -> Self {
        let mut by_name: HashMap<&str, Vec<FnId>> = HashMap::new();
        let mut by_ty_name: HashMap<(&str, &str), Vec<FnId>> = HashMap::new();
        for (fi, (_, ast)) in files.iter().enumerate() {
            for (ni, f) in ast.fns.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                by_name.entry(f.name.as_str()).or_default().push((fi, ni));
                if let Some(ty) = &f.self_ty {
                    by_ty_name.entry((ty.as_str(), f.name.as_str())).or_default().push((fi, ni));
                }
            }
        }
        Symbols {
            files: files.iter().map(|(_, a)| *a).collect(),
            rels: files.iter().map(|(r, _)| *r).collect(),
            by_name,
            by_ty_name,
        }
    }

    /// The [`FnDef`] behind an id.
    pub fn def(&self, id: FnId) -> &'a FnDef {
        &self.files[id.0].fns[id.1]
    }

    /// All non-test functions with this name, any self type.
    pub fn by_name(&self, name: &str) -> &[FnId] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// All non-test methods `ty::name`.
    pub fn by_ty_name(&self, ty: &str, name: &str) -> &[FnId] {
        // Tuple keys of `&'a str` cannot borrow-match a shorter-lived
        // probe; the table is small enough that a scan is free.
        self.by_ty_name
            .iter()
            .find(|((t, n), _)| *t == ty && *n == name)
            .map_or(&[], |(_, v)| v.as_slice())
    }

    /// Does any workspace type carry a method with this self type?
    /// (Used to tell `Vec::new` — external — from `Sm::new`.)
    pub fn knows_type(&self, ty: &str) -> bool {
        self.by_ty_name.keys().any(|(t, _)| *t == ty)
    }

    /// Ids of every non-test, non-cold function with a body whose name
    /// is in `names` — the roots for a reachability sweep.
    pub fn roots_named(&self, names: &[&str]) -> Vec<FnId> {
        let mut out = Vec::new();
        for (fi, ast) in self.files.iter().enumerate() {
            for (ni, f) in ast.fns.iter().enumerate() {
                if !f.is_test && !f.is_cold && f.body.is_some() && names.contains(&f.name.as_str())
                {
                    out.push((fi, ni));
                }
            }
        }
        out
    }

    /// Iterate every function id in file order.
    pub fn all(&self) -> impl Iterator<Item = FnId> + '_ {
        self.files
            .iter()
            .enumerate()
            .flat_map(|(fi, ast)| (0..ast.fns.len()).map(move |ni| (fi, ni)))
    }
}
