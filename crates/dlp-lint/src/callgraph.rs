//! Call graph over the sim-tier symbol table, plus the reachability
//! sweeps the semantic rules run on it.
//!
//! Edge resolution (no type inference — see [`crate::symbols`]):
//!
//! * `Qual::name(…)` path calls resolve only to workspace methods whose
//!   self type is `Qual` (with `Self` mapped to the caller's type). A
//!   qualifier no workspace impl knows (`Vec`, `Box`, `u64`, module
//!   names, …) produces **no** edge — external code is not ours to lint,
//!   and by-name fallback here would wire `Vec::new` to every `fn new`.
//! * `self.name(…)` prefers a method on the caller's own type, falling
//!   back to all same-named workspace methods.
//! * Other method calls resolve by name to workspace *methods* whose
//!   self type has **receiver affinity** with the call's receiver path:
//!   the last receiver segment equals the lowercased type name, is a
//!   ≥3-char substring of it, or contains it (`self.l1d.cycle()` →
//!   `L1dCache::cycle`, `part.cycle()` → `MemoryPartition::cycle`).
//!   Without affinity there is no edge — this is what keeps an iterator
//!   `.collect()` from resolving to `Gpu::collect` and a binheap
//!   `.pop()` from resolving to `Interconnect::pop`.
//! * Free calls resolve by name to every workspace function with that
//!   name (sound over-approximation; free-fn names are near-unique).
//! * `#[cold]` functions take no outgoing edges during a sweep: marking
//!   a function cold both documents and enforces "off the hot path",
//!   and doubles as a codegen hint.
//! * Test functions are outside the graph entirely.

use crate::parser::FnDef;
use crate::symbols::{FnId, Symbols};
use std::collections::HashMap;

/// The workspace call graph: adjacency from caller to callee ids.
pub struct CallGraph {
    edges: HashMap<FnId, Vec<FnId>>,
}

/// Result of a reachability sweep: every function reachable from the
/// roots, with a parent pointer for rendering "how did this get hot".
pub struct Reach {
    parent: HashMap<FnId, Option<FnId>>,
}

impl CallGraph {
    /// Build the graph over the whole symbol table.
    pub fn build(syms: &Symbols<'_>) -> Self {
        let mut edges: HashMap<FnId, Vec<FnId>> = HashMap::new();
        for id in syms.all() {
            let caller = syms.def(id);
            if caller.is_test {
                continue;
            }
            let Some(body) = &caller.body else { continue };
            let mut out: Vec<FnId> = Vec::new();
            for call in &body.calls {
                resolve(syms, caller, call.qual.as_deref(), &call.recv, call.method, &call.name, &mut out);
            }
            out.sort_unstable();
            out.dedup();
            out.retain(|&callee| callee != id); // self-recursion adds nothing
            edges.insert(id, out);
        }
        CallGraph { edges }
    }

    /// Callees of `id`.
    pub fn callees(&self, id: FnId) -> &[FnId] {
        self.edges.get(&id).map_or(&[], Vec::as_slice)
    }

    /// Breadth-first reachability from `roots`. `#[cold]` functions are
    /// never entered (they are the declared escape hatch).
    pub fn reach(&self, syms: &Symbols<'_>, roots: &[FnId]) -> Reach {
        let mut parent: HashMap<FnId, Option<FnId>> = HashMap::new();
        let mut queue: std::collections::VecDeque<FnId> = std::collections::VecDeque::new();
        for &r in roots {
            if parent.insert(r, None).is_none() {
                queue.push_back(r);
            }
        }
        while let Some(id) = queue.pop_front() {
            for &callee in self.callees(id) {
                if syms.def(callee).is_cold || syms.def(callee).body.is_none() {
                    continue;
                }
                if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(callee) {
                    e.insert(Some(id));
                    queue.push_back(callee);
                }
            }
        }
        Reach { parent }
    }
}

/// Resolve one call site into zero or more workspace callees.
fn resolve(
    syms: &Symbols<'_>,
    caller: &FnDef,
    qual: Option<&str>,
    recv: &[String],
    method: bool,
    name: &str,
    out: &mut Vec<FnId>,
) {
    if let Some(q) = qual {
        let ty = if q == "Self" { caller.self_ty.as_deref().unwrap_or(q) } else { q };
        if syms.knows_type(ty) {
            out.extend_from_slice(syms.by_ty_name(ty, name));
        }
        // Unknown qualifier: external type or module path — no edge.
        return;
    }
    if method && recv.first().map(String::as_str) == Some("self") && recv.len() == 1 {
        if let Some(ty) = caller.self_ty.as_deref() {
            let own = syms.by_ty_name(ty, name);
            if !own.is_empty() {
                out.extend_from_slice(own);
                return;
            }
        }
        // `self.m()` with no own-type match: trait-dispatched — any
        // workspace method with the name could be the target.
        out.extend(syms.by_name(name).iter().filter(|&&c| syms.def(c).self_ty.is_some()));
        return;
    }
    if method {
        // Non-self receiver: a method call can only land on a method,
        // and only one whose self type plausibly matches the receiver
        // path. No affinity → no edge (see module docs).
        let Some(seg) = recv.iter().rev().find(|s| *s != "self") else { return };
        out.extend(syms.by_name(name).iter().filter(|&&c| {
            syms.def(c).self_ty.as_deref().is_some_and(|ty| recv_matches(seg, ty))
        }));
        return;
    }
    out.extend_from_slice(syms.by_name(name));
}

/// Does a receiver path segment plausibly name a value of type `ty`?
/// Lowercased: exact match, a ≥3-char substring of the type (`l1d` →
/// `L1dCache`, `part` → `MemoryPartition`), or containing the type
/// (`cur_gpu` → `Gpu`). Short segments (`w`, `sm`) only match
/// exactly, so `w.finished()` never reaches `Gpu::finished`.
fn recv_matches(seg: &str, ty: &str) -> bool {
    let seg = seg.trim_start_matches('_').to_ascii_lowercase();
    let ty = ty.to_ascii_lowercase();
    !seg.is_empty()
        && (seg == ty || (seg.len() >= 3 && ty.contains(&seg)) || seg.contains(&ty))
}

impl Reach {
    /// Is `id` in the reachable set?
    pub fn contains(&self, id: FnId) -> bool {
        self.parent.contains_key(&id)
    }

    /// Render the root-to-`id` call chain as `"Root::fn -> helper"`,
    /// or `None` if `id` is unreachable. A root alone renders as its
    /// own name.
    pub fn chain(&self, syms: &Symbols<'_>, id: FnId) -> Option<String> {
        if !self.contains(id) {
            return None;
        }
        let mut names = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            names.push(syms.def(c).qual_name());
            cur = *self.parent.get(&c)?;
        }
        names.reverse();
        Some(names.join(" -> "))
    }

    /// Iterate the reachable set (unordered).
    pub fn iter(&self) -> impl Iterator<Item = FnId> + '_ {
        self.parent.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::{parse, FileAst};

    fn graph_fixture(srcs: &[(&str, &str)]) -> (Vec<FileAst>, Vec<String>) {
        let asts: Vec<FileAst> = srcs.iter().map(|(_, s)| parse(&lex(s).tokens)).collect();
        let rels: Vec<String> = srcs.iter().map(|(r, _)| r.to_string()).collect();
        (asts, rels)
    }

    #[test]
    fn hot_propagates_through_named_calls_but_not_cold_or_external() {
        let (asts, rels) = graph_fixture(&[
            (
                "crates/gpu-sim/src/a.rs",
                "impl Sm { fn cycle(&mut self) { self.helper(); Vec::new(); self.abort(); } \
                 fn helper(&mut self) { shared(); } \
                 #[cold] fn abort(&self) { boxed(); } }",
            ),
            (
                "crates/gpu-mem/src/b.rs",
                "fn shared() { leaf(); } fn leaf() {} fn boxed() {} fn unrelated() {}",
            ),
        ]);
        let pairs: Vec<(&str, &FileAst)> =
            rels.iter().map(String::as_str).zip(asts.iter()).collect();
        let syms = Symbols::build(&pairs);
        let graph = CallGraph::build(&syms);
        let hot = graph.reach(&syms, &syms.roots_named(&["cycle"]));
        let hot_names: Vec<String> = {
            let mut v: Vec<String> =
                hot.iter().map(|id| syms.def(id).qual_name()).collect();
            v.sort();
            v
        };
        assert_eq!(hot_names, ["Sm::cycle", "Sm::helper", "leaf", "shared"]);
        let leaf_id = syms.by_name("leaf")[0];
        assert_eq!(
            hot.chain(&syms, leaf_id).as_deref(),
            Some("Sm::cycle -> Sm::helper -> shared -> leaf")
        );
    }

    #[test]
    fn self_calls_prefer_the_callers_own_type() {
        let (asts, rels) = graph_fixture(&[(
            "crates/gpu-sim/src/a.rs",
            "impl A { fn tick(&mut self) { self.poke(); } fn poke(&mut self) { a_leaf(); } } \
             impl B { fn poke(&mut self) { b_leaf(); } } \
             fn a_leaf() {} fn b_leaf() {}",
        )]);
        let pairs: Vec<(&str, &FileAst)> =
            rels.iter().map(String::as_str).zip(asts.iter()).collect();
        let syms = Symbols::build(&pairs);
        let graph = CallGraph::build(&syms);
        let hot = graph.reach(&syms, &syms.roots_named(&["tick"]));
        assert!(hot.contains(syms.by_name("a_leaf")[0]));
        assert!(!hot.contains(syms.by_name("b_leaf")[0]), "B::poke must not be pulled in");
    }
}
