//! A minimal item-level recursive-descent parser over the token
//! stream from [`crate::lexer`].
//!
//! The semantic rule families (L6xx leap-contract, transitive
//! P301/F103) need more than tokens: which functions exist,
//! which type each method belongs to, what each body calls, and which
//! fields it assigns. That is *all* they need — so this parser builds
//! exactly that and nothing more: no expression trees, no types, no
//! lifetimes. It is deliberately lenient (unknown constructs are
//! skipped token-by-token) because it runs on code `rustc` already
//! accepted; the only hard failure is structural — an unbalanced brace
//! or an unterminated signature — which surfaces as a [`ParseError`]
//! and becomes an `X003` finding (a hard CI error, since every
//! downstream mask and call-graph edge would be suspect).

use crate::lexer::{Token, TokenKind};

/// Everything the semantic pass needs from one file.
#[derive(Debug, Default)]
pub struct FileAst {
    /// Every function definition, including trait declarations
    /// (bodyless) and functions nested inside other bodies.
    pub fns: Vec<FnDef>,
    /// Token-index ranges (inclusive) covered by `#[cfg(test)]`-style
    /// attributes — including `cfg(all(test, …))` / `cfg(any(test, …))`
    /// — and by `#[test]` functions.
    pub test_ranges: Vec<(usize, usize)>,
    /// Structural failures; any entry poisons the file's analysis.
    pub errors: Vec<ParseError>,
}

impl FileAst {
    /// Per-token mask of the ranges in [`Self::test_ranges`].
    pub fn test_mask(&self, len: usize) -> Vec<bool> {
        let mut mask = vec![false; len];
        for &(start, end) in &self.test_ranges {
            for m in mask.iter_mut().take(end.min(len.saturating_sub(1)) + 1).skip(start) {
                *m = true;
            }
        }
        mask
    }
}

/// One function definition (or bodyless trait declaration).
#[derive(Debug)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl` type (last path segment), if any. `None` for
    /// free functions, trait declarations, and nested functions.
    pub self_ty: Option<String>,
    /// Inside a `#[cfg(test)]` item or carrying `#[test]`.
    pub is_test: bool,
    /// Carries `#[cold]`: declared off the hot path, so transitive
    /// hot-path propagation stops here.
    pub is_cold: bool,
    /// 1-based position of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Parameters, in order (`self` appears as a parameter named `self`).
    pub params: Vec<Param>,
    /// The body, or `None` for a bodyless declaration.
    pub body: Option<FnBody>,
}

impl FnDef {
    /// `Type::name` or bare `name` for diagnostics.
    pub fn qual_name(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One parameter: its binding name.
#[derive(Debug)]
pub struct Param {
    /// Binding name (first identifier of the pattern; `self` for the
    /// receiver).
    pub name: String,
}

/// A function body: its token extent plus the calls and field
/// assignments found inside it (excluding nested `fn` items, which
/// get their own [`FnDef`]).
#[derive(Debug)]
pub struct FnBody {
    /// Inclusive token-index range from the opening `{` to the
    /// matching `}`.
    pub range: (usize, usize),
    /// Call sites, in source order.
    pub calls: Vec<Call>,
    /// `self.field… = / += / …` assignments, in source order.
    pub writes: Vec<FieldWrite>,
}

/// One call site.
#[derive(Debug)]
pub struct Call {
    /// Callee name (the identifier before the argument list).
    pub name: String,
    /// True for `recv.name(…)` method-call syntax.
    pub method: bool,
    /// For method calls: the dotted receiver chain, outermost first
    /// (`self.icnt.try_send_fwd(…)` → `["self", "icnt"]`). Empty when
    /// the receiver is not a plain field chain (e.g. a call result).
    pub recv: Vec<String>,
    /// For path calls `Qual::name(…)`: the segment before the final
    /// `::` (`Vec`, `Self`, a module name, …).
    pub qual: Option<String>,
    /// 1-based line of the callee name.
    pub line: u32,
    /// 1-based column of the callee name.
    pub col: u32,
}

/// One `self.…` field assignment (plain or compound).
#[derive(Debug)]
pub struct FieldWrite {
    /// The dotted path, starting with `self`.
    pub path: Vec<String>,
    /// 1-based line of the `self` token.
    pub line: u32,
    /// 1-based column of the `self` token.
    pub col: u32,
}

/// A structural parse failure.
#[derive(Debug)]
pub struct ParseError {
    /// 1-based line nearest the failure.
    pub line: u32,
    /// What went wrong.
    pub msg: String,
}

/// Attribute facts gathered ahead of an item.
#[derive(Debug, Default, Clone, Copy)]
struct Attrs {
    /// `#[cfg(test)]`, `#[cfg(all(test, …))]`, `#[cfg(any(test, …))]`
    /// — but not `#[cfg(not(test))]`.
    test: bool,
    /// `#[test]` (the item is a test function).
    test_fn: bool,
    /// `#[cold]`.
    cold: bool,
    /// Token index of the first attribute's `#`, for range marking.
    start: Option<usize>,
}

/// Item-parsing context threaded through nesting.
#[derive(Clone)]
struct Ctx {
    self_ty: Option<String>,
    in_test: bool,
}

/// Parse one file's token stream into its [`FileAst`].
pub fn parse(tokens: &[Token]) -> FileAst {
    let mut p = Parser { t: tokens, out: FileAst::default() };
    let ctx = Ctx { self_ty: None, in_test: false };
    p.items(0, tokens.len(), &ctx);
    p.out
}

struct Parser<'a> {
    t: &'a [Token],
    out: FileAst,
}

const KEYWORDS_NOT_CALLS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "let", "else", "fn",
    "unsafe", "ref", "mut", "box", "break", "continue", "where", "impl", "dyn",
];

impl Parser<'_> {
    fn p(&self, i: usize, c: char) -> bool {
        self.t
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text.len() == 1 && t.text.starts_with(c))
    }

    fn ident(&self, i: usize) -> Option<&str> {
        self.t.get(i).and_then(|t| (t.kind == TokenKind::Ident).then_some(t.text.as_str()))
    }

    fn is_kw(&self, i: usize, kw: &str) -> bool {
        self.ident(i) == Some(kw)
    }

    fn line_of(&self, i: usize) -> u32 {
        self.t.get(i.min(self.t.len().saturating_sub(1))).map_or(0, |t| t.line)
    }

    fn err(&mut self, i: usize, msg: &str) {
        let line = self.line_of(i);
        self.out.errors.push(ParseError { line, msg: msg.to_string() });
    }

    /// Index just past the `]` of the attribute starting at `i` (`#`),
    /// or `i + 1` if it is not an attribute after all.
    fn attr_end(&self, i: usize) -> usize {
        let open = if self.p(i + 1, '[') {
            i + 1
        } else if self.p(i + 1, '!') && self.p(i + 2, '[') {
            i + 2
        } else {
            return i + 1;
        };
        let mut depth = 0usize;
        let mut j = open;
        while j < self.t.len() {
            if self.p(j, '[') {
                depth += 1;
            } else if self.p(j, ']') {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        self.t.len()
    }

    /// Collect consecutive attributes starting at `i`; returns the
    /// gathered facts and the index of the first non-attribute token.
    fn attrs(&mut self, mut i: usize, end: usize) -> (Attrs, usize) {
        let mut a = Attrs::default();
        while i < end && self.p(i, '#') {
            let after = self.attr_end(i);
            if after == i + 1 {
                break; // stray `#`, not an attribute
            }
            if a.start.is_none() {
                a.start = Some(i);
            }
            let inner_start = if self.p(i + 1, '!') { i + 3 } else { i + 2 };
            let inner = &self.t[inner_start..after.saturating_sub(1).max(inner_start)];
            match inner.first().map(|t| t.text.as_str()) {
                Some("cfg") => a.test |= cfg_marks_test(inner),
                Some("test") if inner.len() == 1 => a.test_fn = true,
                Some("cold") if inner.len() == 1 => a.cold = true,
                _ => {}
            }
            i = after;
        }
        (a, i)
    }

    /// Index of the `}` matching the `{` at `i`, or an error.
    fn brace_match(&mut self, i: usize) -> Option<usize> {
        let mut depth = 0usize;
        let mut j = i;
        while j < self.t.len() {
            if self.p(j, '{') {
                depth += 1;
            } else if self.p(j, '}') {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            j += 1;
        }
        self.err(i, "unbalanced braces: `{` with no matching `}`");
        None
    }

    /// Skip a balanced `<…>` generic group starting at `i` (`<`).
    /// Returns the index just past the matching `>`. Arrow tokens
    /// (`->`) inside (e.g. `F: Fn(u64) -> u64`) do not count as
    /// closing angles.
    fn skip_angles(&self, i: usize) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while j < self.t.len() {
            if self.p(j, '-') && self.p(j + 1, '>') {
                j += 2;
                continue;
            }
            if self.p(j, '<') {
                depth += 1;
            } else if self.p(j, '>') {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        self.t.len()
    }

    /// Parse the items in `self.t[i..end]`.
    fn items(&mut self, mut i: usize, end: usize, ctx: &Ctx) {
        while i < end {
            let (attrs, j) = self.attrs(i, end);
            let mut j = j;
            // Visibility and qualifiers ahead of the item keyword.
            loop {
                if self.is_kw(j, "pub") {
                    j += 1;
                    if self.p(j, '(') {
                        let mut depth = 0usize;
                        while j < end {
                            if self.p(j, '(') {
                                depth += 1;
                            } else if self.p(j, ')') {
                                depth -= 1;
                                if depth == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            j += 1;
                        }
                    }
                } else if self.is_kw(j, "unsafe") || self.is_kw(j, "async") {
                    j += 1;
                } else if self.is_kw(j, "const") && self.is_kw(j + 1, "fn") {
                    j += 1; // `const fn`
                } else if self.is_kw(j, "extern")
                    && self.t.get(j + 1).is_some_and(|t| t.kind == TokenKind::Str)
                    && self.is_kw(j + 2, "fn")
                {
                    j += 2;
                } else {
                    break;
                }
            }
            let item_end = match self.ident(j) {
                Some("mod") if self.ident(j + 1).is_some() => {
                    if self.p(j + 2, '{') {
                        let Some(close) = self.brace_match(j + 2) else { return };
                        let inner =
                            Ctx { self_ty: None, in_test: ctx.in_test || attrs.test };
                        self.items(j + 3, close, &inner);
                        close + 1
                    } else {
                        j + 3 // `mod name;`
                    }
                }
                Some("impl") => self.item_impl(j, end, ctx, attrs),
                Some("trait") => {
                    // Scan to the trait's `{` at angle depth 0; the
                    // bounds list may hold `Fn(..) -> ..` arrows.
                    let mut k = j + 1;
                    let mut angles = 0usize;
                    while k < end && !(angles == 0 && self.p(k, '{')) && !self.p(k, ';') {
                        if self.p(k, '-') && self.p(k + 1, '>') {
                            k += 2;
                            continue;
                        }
                        if self.p(k, '<') {
                            angles += 1;
                        } else if self.p(k, '>') {
                            angles = angles.saturating_sub(1);
                        }
                        k += 1;
                    }
                    if k < end && self.p(k, '{') {
                        let Some(close) = self.brace_match(k) else { return };
                        let inner =
                            Ctx { self_ty: None, in_test: ctx.in_test || attrs.test };
                        self.items(k + 1, close, &inner);
                        close + 1
                    } else {
                        k + 1
                    }
                }
                Some("fn") => self.item_fn(j, attrs, ctx),
                Some("struct") | Some("enum") | Some("union") | Some("static")
                | Some("type") | Some("use") | Some("const") => self.skip_item(j + 1),
                Some("macro_rules") if self.p(j + 1, '!') => {
                    // `macro_rules! name { … }`
                    let mut k = j + 2;
                    while k < self.t.len() && !self.p(k, '{') {
                        k += 1;
                    }
                    match self.brace_match(k) {
                        Some(close) => close + 1,
                        None => return,
                    }
                }
                _ => j + 1,
            };
            if attrs.test || attrs.test_fn {
                let start = attrs.start.unwrap_or(i);
                self.out.test_ranges.push((start, item_end.saturating_sub(1).max(start)));
            }
            i = item_end.max(i + 1);
        }
    }

    /// Parse an `impl` item; `j` sits on the `impl` keyword. Returns
    /// the index just past the item.
    fn item_impl(&mut self, j: usize, end: usize, ctx: &Ctx, attrs: Attrs) -> usize {
        let mut k = j + 1;
        if self.p(k, '<') {
            k = self.skip_angles(k);
        }
        // Walk the header up to `{`; the self type is the last
        // angle-depth-0 path segment (after `for`, if present).
        let mut self_ty: Option<String> = None;
        let mut angles = 0usize;
        let mut saw_where = false;
        while k < end && !(angles == 0 && self.p(k, '{')) && !self.p(k, ';') {
            if self.p(k, '-') && self.p(k + 1, '>') {
                k += 2;
                continue;
            }
            if self.p(k, '<') {
                angles += 1;
            } else if self.p(k, '>') {
                angles = angles.saturating_sub(1);
            } else if angles == 0 {
                if let Some(name) = self.ident(k) {
                    if name == "where" {
                        saw_where = true;
                    } else if name == "for" {
                        self_ty = None; // restart: the type follows `for`
                    } else if !saw_where {
                        self_ty = Some(name.to_string());
                    }
                }
            }
            k += 1;
        }
        if k >= end || self.p(k, ';') {
            return k + 1;
        }
        let Some(close) = self.brace_match(k) else {
            return self.t.len();
        };
        let inner = Ctx { self_ty, in_test: ctx.in_test || attrs.test };
        self.items(k + 1, close, &inner);
        close + 1
    }

    /// Parse a `fn` item; `j` sits on the `fn` keyword. Returns the
    /// index just past the item (past `;` or the body's `}`).
    fn item_fn(&mut self, j: usize, attrs: Attrs, ctx: &Ctx) -> usize {
        let Some(name) = self.ident(j + 1).map(str::to_string) else {
            return j + 2; // `fn(..)` pointer type or malformed input
        };
        let (fn_line, fn_col) = (self.t[j].line, self.t[j].col);
        let mut k = j + 2;
        if self.p(k, '<') {
            k = self.skip_angles(k);
        }
        let mut params = Vec::new();
        if self.p(k, '(') {
            let (parsed, after) = self.params(k);
            params = parsed;
            k = after;
        }
        // Scan past return type and where clause to the body or `;`.
        let mut angles = 0usize;
        while k < self.t.len() && !(angles == 0 && (self.p(k, '{') || self.p(k, ';'))) {
            if self.p(k, '-') && self.p(k + 1, '>') {
                k += 2;
                continue;
            }
            if self.p(k, '<') {
                angles += 1;
            } else if self.p(k, '>') {
                angles = angles.saturating_sub(1);
            }
            k += 1;
        }
        if k >= self.t.len() {
            self.err(j, &format!("unterminated signature of `fn {name}`"));
            return self.t.len();
        }
        let is_test = ctx.in_test || attrs.test || attrs.test_fn;
        if self.p(k, ';') {
            self.out.fns.push(FnDef {
                name,
                self_ty: ctx.self_ty.clone(),
                is_test,
                is_cold: attrs.cold,
                line: fn_line,
                col: fn_col,
                params,
                body: None,
            });
            return k + 1;
        }
        let Some(close) = self.brace_match(k) else {
            return self.t.len();
        };
        let body = self.body(k, close, ctx, is_test);
        self.out.fns.push(FnDef {
            name,
            self_ty: ctx.self_ty.clone(),
            is_test,
            is_cold: attrs.cold,
            line: fn_line,
            col: fn_col,
            params,
            body: Some(body),
        });
        close + 1
    }

    /// Parse a parenthesised parameter list; `k` sits on `(`. Returns
    /// the parameters and the index just past the closing `)`.
    fn params(&mut self, k: usize) -> (Vec<Param>, usize) {
        let mut params = Vec::new();
        let mut depth = 0usize;
        let mut angles = 0usize;
        let mut j = k;
        let mut seg: Vec<usize> = Vec::new(); // token indices of the segment
        let mut close = self.t.len();
        while j < self.t.len() {
            if self.p(j, '(') {
                depth += 1;
                if depth > 1 {
                    seg.push(j);
                }
            } else if self.p(j, ')') {
                depth -= 1;
                if depth == 0 {
                    if !seg.is_empty() {
                        if let Some(p) = self.param_from(&seg) {
                            params.push(p);
                        }
                    }
                    close = j;
                    break;
                }
                seg.push(j);
            } else if self.p(j, '<') {
                angles += 1;
                seg.push(j);
            } else if self.p(j, '>') && !self.p(j.wrapping_sub(1), '-') {
                angles = angles.saturating_sub(1);
                seg.push(j);
            } else if self.p(j, ',') && depth == 1 && angles == 0 {
                if let Some(p) = self.param_from(&seg) {
                    params.push(p);
                }
                seg.clear();
            } else {
                seg.push(j);
            }
            j += 1;
        }
        (params, close + 1)
    }

    /// Build a [`Param`] from the token indices of one comma-separated
    /// parameter segment.
    fn param_from(&self, seg: &[usize]) -> Option<Param> {
        let colon = seg.iter().position(|&i| {
            self.p(i, ':') && !self.p(i + 1, ':') && !seg.contains(&(i.wrapping_sub(1)))
                || self.p(i, ':') && !self.p(i + 1, ':') && !self.p(i.wrapping_sub(1), ':')
        });
        let name_part = match colon {
            Some(c) => &seg[..c],
            None => seg,
        };
        let name = name_part.iter().find_map(|&i| {
            let id = self.ident(i)?;
            (id != "mut").then(|| id.to_string())
        })?;
        Some(Param { name })
    }

    /// Scan a body's tokens (`open`/`close` are the brace indices) for
    /// calls, field writes, and nested functions.
    fn body(&mut self, open: usize, close: usize, ctx: &Ctx, is_test: bool) -> FnBody {
        let mut calls = Vec::new();
        let mut writes = Vec::new();
        let mut j = open + 1;
        while j < close {
            // Nested `fn` item: parse it as its own FnDef and skip it.
            if self.is_kw(j, "fn") && self.ident(j + 1).is_some() {
                let nested_ctx = Ctx { self_ty: None, in_test: ctx.in_test || is_test };
                let after = self.item_fn(j, Attrs::default(), &nested_ctx);
                if is_test {
                    if let Some(f) = self.out.fns.last_mut() {
                        f.is_test = true;
                    }
                }
                j = after.max(j + 1);
                continue;
            }
            // `self.a.b = / += / …` field writes.
            if self.is_kw(j, "self") && self.p(j + 1, '.') && self.ident(j + 2).is_some() {
                let mut path = vec!["self".to_string()];
                let mut k = j + 1;
                while self.p(k, '.') && self.ident(k + 1).is_some() {
                    path.push(self.t[k + 1].text.clone());
                    k += 2;
                }
                if self.is_assign(k) {
                    writes.push(FieldWrite {
                        path,
                        line: self.t[j].line,
                        col: self.t[j].col,
                    });
                }
                // Fall through: a trailing `.call(` on the same chain
                // is picked up by the call scan below.
            }
            // Calls: `name(…)`, `name::<…>(…)` preceded by `.` / `::` / nothing.
            if let Some(name) = self.ident(j) {
                if !KEYWORDS_NOT_CALLS.contains(&name) {
                    let mut after = j + 1;
                    if self.p(after, ':') && self.p(after + 1, ':') && self.p(after + 2, '<') {
                        after = self.skip_angles(after + 2);
                    }
                    if self.p(after, '(') && !self.p(j + 1, '!') {
                        let call = self.classify_call(j, name);
                        calls.push(call);
                    }
                }
            }
            j += 1;
        }
        FnBody { range: (open, close), calls, writes }
    }

    /// Is the token at `k` the start of an assignment operator
    /// (`=`, `+=`, `<<=`, …) rather than a comparison?
    fn is_assign(&self, k: usize) -> bool {
        if self.p(k, '=') {
            return !self.p(k + 1, '=');
        }
        let compound = ['+', '-', '*', '/', '%', '&', '|', '^'];
        if compound.iter().any(|&c| self.p(k, c)) && self.p(k + 1, '=') && !self.p(k + 2, '=') {
            return true;
        }
        // `<<=` / `>>=`
        (self.p(k, '<') && self.p(k + 1, '<') && self.p(k + 2, '='))
            || (self.p(k, '>') && self.p(k + 1, '>') && self.p(k + 2, '='))
    }

    /// Classify the call whose name identifier is at `j`.
    fn classify_call(&self, j: usize, name: &str) -> Call {
        let (line, col) = (self.t[j].line, self.t[j].col);
        if self.p(j.wrapping_sub(1), '.') {
            // Method call: walk the dotted receiver chain backwards.
            let mut recv = Vec::new();
            let mut k = j - 1; // the `.`
            while k > 0 {
                let Some(id) = self.ident(k - 1) else { break };
                recv.push(id.to_string());
                k -= 1;
                if k > 0 && self.p(k - 1, '.') {
                    k -= 1;
                } else {
                    break;
                }
            }
            recv.reverse();
            return Call { name: name.to_string(), method: true, recv, qual: None, line, col };
        }
        if j >= 2 && self.p(j - 1, ':') && self.p(j - 2, ':') {
            let qual = self.ident(j.wrapping_sub(3)).map(str::to_string).or_else(|| {
                // `Foo::<T>::new` — the qualifier sits before a
                // turbofish; walk back over one balanced angle group.
                if self.p(j.wrapping_sub(3), '>') {
                    let mut depth = 0usize;
                    let mut k = j - 3;
                    loop {
                        if self.p(k, '>') {
                            depth += 1;
                        } else if self.p(k, '<') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        if k == 0 {
                            break;
                        }
                        k -= 1;
                    }
                    self.ident(k.wrapping_sub(1)).map(str::to_string)
                } else {
                    None
                }
            });
            return Call { name: name.to_string(), method: false, recv: Vec::new(), qual, line, col };
        }
        Call { name: name.to_string(), method: false, recv: Vec::new(), qual: None, line, col }
    }

    /// Skip a non-fn item starting just past its keyword: to a `;` at
    /// brace depth 0, or past the first depth-0 brace block (whichever
    /// ends the item). Returns the index just past the item.
    fn skip_item(&mut self, mut j: usize) -> usize {
        let mut depth = 0usize;
        while j < self.t.len() {
            if self.p(j, '{') {
                depth += 1;
            } else if self.p(j, '}') {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    // `struct S { … }` ends here; `= Foo { … };` has a
                    // trailing `;` which the `;`-check below would also
                    // accept — stopping at the brace is right for both
                    // (the stray `;` is skipped as an empty item).
                    return j + 1;
                }
            } else if self.p(j, ';') && depth == 0 {
                return j + 1;
            }
            j += 1;
        }
        j
    }
}

/// Does a `cfg(…)` attribute body (tokens inside `[…]`, starting with
/// the `cfg` identifier) mark the item as test-only? `test` counts
/// under `cfg(...)`, `all(...)`, `any(...)` — but never under
/// `not(...)`.
fn cfg_marks_test(s: &[Token]) -> bool {
    let mut stack: Vec<&str> = Vec::new();
    let mut j = 0usize;
    while j < s.len() {
        let t = &s[j];
        if t.kind == TokenKind::Ident {
            let next_is_open = s
                .get(j + 1)
                .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "(");
            if next_is_open {
                stack.push(t.text.as_str());
                j += 2;
                continue;
            }
            if t.text == "test"
                && stack.first() == Some(&"cfg")
                && !stack.contains(&"not")
            {
                return true;
            }
        } else if t.kind == TokenKind::Punct && t.text == ")" {
            stack.pop();
        }
        j += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ast(src: &str) -> FileAst {
        parse(&lex(src).tokens)
    }

    #[test]
    fn fns_in_impls_carry_their_self_type() {
        let a = ast("impl Sm { fn cycle(&mut self, now: u64) -> u64 { now } }\n\
                     impl fmt::Display for Gpu { fn fmt(&self) {} }\n\
                     fn free() {}");
        let names: Vec<_> = a.fns.iter().map(|f| f.qual_name()).collect();
        assert_eq!(names, ["Sm::cycle", "Gpu::fmt", "free"]);
        assert!(a.errors.is_empty());
    }

    #[test]
    fn trait_decls_are_bodyless_and_default_methods_parse() {
        let a = ast("trait Clocked { fn cycle(&mut self, now: u64); fn idle(&self) -> bool { true } }");
        assert_eq!(a.fns.len(), 2);
        assert!(a.fns[0].body.is_none());
        assert!(a.fns[1].body.is_some());
    }

    #[test]
    fn calls_classify_method_path_and_free() {
        let a = ast(
            "fn f(&mut self) { self.icnt.try_send_fwd(0); Vec::new(); helper(1); \
             x.iter().collect::<Vec<_>>(); }",
        );
        let b = a.fns[0].body.as_ref().unwrap();
        let get = |n: &str| b.calls.iter().find(|c| c.name == n).unwrap();
        let send = get("try_send_fwd");
        assert!(send.method);
        assert_eq!(send.recv, ["self", "icnt"]);
        assert_eq!(get("new").qual.as_deref(), Some("Vec"));
        assert!(!get("helper").method);
        assert!(get("helper").qual.is_none());
        assert!(b.calls.iter().any(|c| c.name == "collect"), "turbofish call missed");
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let a = ast("fn f() { vec![1]; panic!(\"x\"); if (a) {} while (b) {} match (c) {} }");
        let b = a.fns[0].body.as_ref().unwrap();
        assert!(b.calls.is_empty(), "{:?}", b.calls);
    }

    #[test]
    fn field_writes_catch_plain_and_compound_assignments() {
        let a = ast(
            "fn f(&mut self) { self.stats.hits += 1; self.last = Some(3); \
             if self.stats.hits == 2 {} self.mask <<= 1; let x = self.stats.misses; }",
        );
        let b = a.fns[0].body.as_ref().unwrap();
        let paths: Vec<String> = b.writes.iter().map(|w| w.path.join(".")).collect();
        assert_eq!(paths, ["self.stats.hits", "self.last", "self.mask"]);
    }

    #[test]
    fn cfg_test_variants_mark_ranges_and_not_test_does_not() {
        for attr in ["#[cfg(test)]", "#[cfg(all(test, feature = \"x\"))]", "#[cfg(any(test, doc))]"] {
            let a = ast(&format!("{attr}\nmod tests {{ fn helper() {{}} }}\nfn live() {{}}"));
            assert_eq!(a.test_ranges.len(), 1, "{attr}");
            assert!(a.fns.iter().find(|f| f.name == "helper").unwrap().is_test, "{attr}");
            assert!(!a.fns.iter().find(|f| f.name == "live").unwrap().is_test, "{attr}");
        }
        let a = ast("#[cfg(not(test))]\nmod live { fn helper() {} }");
        assert!(a.test_ranges.is_empty());
        assert!(!a.fns[0].is_test);
    }

    #[test]
    fn test_attr_marks_a_single_fn() {
        let a = ast("#[test]\nfn check() { assert!(true); }\nfn live() {}");
        assert!(a.fns.iter().find(|f| f.name == "check").unwrap().is_test);
        assert!(!a.fns.iter().find(|f| f.name == "live").unwrap().is_test);
        assert_eq!(a.test_ranges.len(), 1);
    }

    #[test]
    fn cold_attr_and_params_are_recorded() {
        let a = ast("#[cold]\nfn slow(report: &HangReport, n: u64) {}");
        let f = &a.fns[0];
        assert!(f.is_cold);
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name, "report");
        assert_eq!(f.params[1].name, "n");
    }

    #[test]
    fn generic_arrows_do_not_derail_the_signature_scan() {
        let a = ast("fn apply<F: Fn(u64) -> u64>(&self, f: F) -> u64 { f(3) }\nfn after() {}");
        assert_eq!(a.fns.len(), 2);
        assert!(a.fns[0].body.is_some());
        assert_eq!(a.fns[1].name, "after");
    }

    #[test]
    fn nested_fns_are_split_out_of_the_parent_body() {
        let a = ast("fn outer() { fn inner() { alloc(); } inner(); }");
        assert_eq!(a.fns.len(), 2);
        let inner = a.fns.iter().find(|f| f.name == "inner").unwrap();
        assert!(inner.body.as_ref().unwrap().calls.iter().any(|c| c.name == "alloc"));
        let outer = a.fns.iter().find(|f| f.name == "outer").unwrap();
        let outer_calls: Vec<_> =
            outer.body.as_ref().unwrap().calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(outer_calls, ["inner"], "parent keeps only its own calls");
    }

    #[test]
    fn unbalanced_braces_surface_as_parse_errors() {
        let a = ast("fn broken() { if x { }");
        assert!(!a.errors.is_empty());
    }

    #[test]
    fn struct_and_static_items_are_skipped_whole() {
        let a = ast(
            "struct S { entries: HashMap<u64, u32> }\n\
             static X: Foo = Foo { a: 1 };\n\
             enum E { A, B(u64) }\n\
             fn live() {}",
        );
        assert_eq!(a.fns.len(), 1);
        assert_eq!(a.fns[0].name, "live");
        assert!(a.errors.is_empty());
    }
}
