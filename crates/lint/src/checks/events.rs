//! Event-protocol check: round-trip completeness for wire enums.
//!
//! The agent tier's `Frame` crosses the process boundary as
//! length-prefixed wire bytes. Rust's exhaustiveness checking keeps the
//! encode side honest only if its match has no wildcard arm — and the
//! decode side is tag-keyed, so the compiler cannot help at all: adding
//! a variant and forgetting its decode arm silently turns that message
//! into a rejected frame on the wire.
//!
//! The check is self-scoping: a protocol enum is one with inherent
//! `fn encode` and `fn decode` (the `detector-agent` frame codec). Every
//! variant of a protocol enum must be mentioned (as `E::Variant` or
//! `Self::Variant`) in both function bodies. The diagnostic anchors at
//! the variant's declaration line — that is where the new variant was
//! added.

use std::ops::Range;

use crate::lexer::{match_brace, Tok, TokKind};
use crate::{Check, Diagnostic, FileCtx};

struct EnumDef {
    name: String,
    variants: Vec<(String, u32)>,
}

/// Flags protocol-enum variants missing from either direction.
pub fn run(ctx: &FileCtx) -> Vec<Diagnostic> {
    let t = &ctx.toks;
    let mut out = Vec::new();
    for e in collect_enums(t) {
        let Some(enc) = inherent_fn_body(t, &e.name, "encode") else {
            continue;
        };
        let Some(dec) = inherent_fn_body(t, &e.name, "decode") else {
            continue;
        };
        for (v, line) in &e.variants {
            let missing = match (
                mentions_variant(t, &enc, &e.name, v),
                mentions_variant(t, &dec, &e.name, v),
            ) {
                (true, true) => continue,
                (false, false) => "encode and decode",
                (false, true) => "encode",
                (true, false) => "decode",
            };
            out.push(Diagnostic {
                file: ctx.rel.clone(),
                line: *line,
                check: Check::EventProtocol,
                message: format!(
                    "variant `{}::{v}` is missing from {missing}; \
                     the wire round-trip drops this frame on encode/decode",
                    e.name
                ),
            });
        }
    }
    out
}

/// All `enum Name { ... }` definitions with their variant names/lines.
fn collect_enums(t: &[Tok]) -> Vec<EnumDef> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < t.len() {
        if t[i].is_ident("enum") {
            if let Some(TokKind::Ident(name)) = t.get(i + 1).map(|x| &x.kind) {
                let mut j = i + 2;
                while j < t.len() && !t[j].is_punct('{') && !t[j].is_punct(';') {
                    j += 1;
                }
                if j < t.len() && t[j].is_punct('{') {
                    let close = match_brace(t, j);
                    out.push(EnumDef {
                        name: name.clone(),
                        variants: collect_variants(t, j + 1..close),
                    });
                    i = close;
                }
            }
        }
        i += 1;
    }
    out
}

fn collect_variants(t: &[Tok], body: Range<usize>) -> Vec<(String, u32)> {
    let mut variants = Vec::new();
    let mut j = body.start;
    while j < body.end {
        match &t[j].kind {
            TokKind::Punct('#') => j = skip_attr(t, j),
            TokKind::Ident(v) => {
                variants.push((v.clone(), t[j].line));
                // Skip the payload / discriminant to the comma at depth 0.
                j += 1;
                let mut depth = 0i32;
                while j < body.end {
                    let tk = &t[j];
                    if tk.is_punct('(') || tk.is_punct('{') || tk.is_punct('[') {
                        depth += 1;
                    } else if tk.is_punct(')') || tk.is_punct('}') || tk.is_punct(']') {
                        depth -= 1;
                    } else if tk.is_punct(',') && depth == 0 {
                        j += 1;
                        break;
                    }
                    j += 1;
                }
            }
            _ => j += 1,
        }
    }
    variants
}

/// Index just past an attribute group `#[...]` starting at `i`.
fn skip_attr(t: &[Tok], i: usize) -> usize {
    if !t.get(i + 1).is_some_and(|x| x.is_punct('[')) {
        return i + 1;
    }
    let mut depth = 0i32;
    let mut j = i + 1;
    while j < t.len() {
        if t[j].is_punct('[') {
            depth += 1;
        } else if t[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    t.len()
}

/// Body token range of `fn fn_name` inside an inherent `impl Name`.
fn inherent_fn_body(t: &[Tok], type_name: &str, fn_name: &str) -> Option<Range<usize>> {
    let mut i = 0usize;
    while i < t.len() {
        if t[i].is_ident("impl") {
            if let Some(body) = inherent_impl_body(t, i, type_name) {
                let mut j = body.start;
                while j < body.end {
                    if t[j].is_ident("fn") && t.get(j + 1).is_some_and(|x| x.is_ident(fn_name)) {
                        let mut k = j + 2;
                        while k < body.end && !t[k].is_punct('{') {
                            k += 1;
                        }
                        if k < body.end {
                            return Some(k + 1..match_brace(t, k));
                        }
                    }
                    j += 1;
                }
                i = body.end;
            }
        }
        i += 1;
    }
    None
}

/// If the `impl` at `i` is an inherent impl of `type_name` (not a trait
/// impl), returns its brace-body range.
fn inherent_impl_body(t: &[Tok], i: usize, type_name: &str) -> Option<Range<usize>> {
    let mut j = i + 1;
    // Skip `impl<...>` generics.
    if t.get(j).is_some_and(|x| x.is_punct('<')) {
        let mut depth = 0i32;
        while j < t.len() {
            if t[j].is_punct('<') {
                depth += 1;
            } else if t[j].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    // The first path segment names the target; a `for` makes it a trait
    // impl.
    let mut target: Option<&str> = None;
    while j < t.len() {
        match &t[j].kind {
            TokKind::Ident(id) if id == "for" => return None,
            TokKind::Ident(id) if id == "where" => break,
            TokKind::Ident(id) => {
                target.get_or_insert(id.as_str());
            }
            TokKind::Punct('{') => break,
            _ => {}
        }
        j += 1;
    }
    if target? != type_name {
        return None;
    }
    // Find the impl's opening brace (past any where clause).
    while j < t.len() && !t[j].is_punct('{') {
        j += 1;
    }
    if j >= t.len() {
        return None;
    }
    Some(j + 1..match_brace(t, j))
}

/// True when `Enum::Variant` or `Self::Variant` occurs in `range`.
fn mentions_variant(t: &[Tok], range: &Range<usize>, enum_name: &str, variant: &str) -> bool {
    for i in range.clone() {
        if (t[i].is_ident(enum_name) || t[i].is_ident("Self"))
            && t.get(i + 1).is_some_and(|x| x.is_punct(':'))
            && t.get(i + 2).is_some_and(|x| x.is_punct(':'))
            && t.get(i + 3).is_some_and(|x| x.is_ident(variant))
            && i + 3 < range.end
        {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_source, ScopeMode};
    use std::path::Path;

    fn lint(src: &str) -> Vec<Diagnostic> {
        lint_source(Path::new("crates/demo/src/x.rs"), src, ScopeMode::Workspace)
    }

    #[test]
    fn enums_without_both_impls_are_ignored() {
        let d = lint("pub enum Plain { A, B }\nimpl Plain { fn other(&self) {} }");
        assert!(d.is_empty(), "{d:?}");

        // A one-way JSON record is not a protocol.
        let d = lint(
            "pub enum OneWay { A }
             impl ToJson for OneWay { fn to_json(&self) -> Json { match self { OneWay::A => x() } } }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    const WIRE_COMPLETE: &str = "
        pub enum Frame { Hello { agent: u32 }, Shutdown }
        impl Frame {
            pub fn encode(&self) -> Vec<u8> {
                match self { Frame::Hello { agent } => enc(agent), Frame::Shutdown => tag() }
            }
            pub fn decode(bytes: &[u8]) -> Result<Frame, FrameError> {
                match tag { 0 => Ok(Frame::Hello { agent: 0 }), 1 => Ok(Frame::Shutdown), _ => Err(e()) }
            }
        }
    ";

    #[test]
    fn complete_wire_protocol_is_clean() {
        assert!(lint(WIRE_COMPLETE).is_empty());
    }

    #[test]
    fn complete_protocol_is_clean() {
        // `Self::` mentions and a generic inherent impl with a where
        // clause still pair the two directions.
        let src = "
            pub enum Msg<T> { Ping(T), Stop }
            impl<T: Copy> Msg<T> where T: Default {
                fn encode(&self) -> Vec<u8> { match self { Self::Ping(t) => p(t), Self::Stop => s() } }
                fn decode(b: &[u8]) -> Option<Self> {
                    match b[0] { 0 => Some(Msg::Ping(T::default())), _ => Some(Self::Stop) }
                }
            }
        ";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
        // Dropping a variant from either direction makes the same source fire.
        let d = lint(&src.replace("_ => Some(Self::Stop)", "_ => None"));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`Msg::Stop`"), "{d:?}");
    }

    #[test]
    fn frame_variant_missing_from_decode_fires() {
        let src = WIRE_COMPLETE.replace("1 => Ok(Frame::Shutdown), ", "");
        let d = lint(&src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].check, Check::EventProtocol);
        assert!(d[0].message.contains("`Frame::Shutdown`"), "{d:?}");
        assert!(d[0].message.contains("decode"), "{d:?}");
        assert!(d[0].message.contains("wire round-trip"), "{d:?}");
        // Anchored at the enum declaration line of the variant.
        assert_eq!(d[0].line, 2, "{d:?}");
    }

    #[test]
    fn frame_variant_missing_from_encode_fires() {
        let src = WIRE_COMPLETE.replace("Frame::Shutdown => tag()", "_ => tag()");
        let d = lint(&src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("encode"), "{d:?}");
    }

    #[test]
    fn encode_only_enums_are_ignored() {
        let d = lint(
            "pub enum OneWay { A }
             impl OneWay { pub fn encode(&self) -> Vec<u8> { match self { OneWay::A => v() } } }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn variant_attrs_and_struct_payloads_parse() {
        let src = "
            pub enum Ev { #[doc = \"x\"] A { cycle: u64, extra: Vec<u32> }, B }
            impl Ev {
                fn encode(&self) -> Vec<u8> { match self { Self::A { .. } => x(), Self::B => y() } }
                fn decode(b: &[u8]) -> Option<Ev> { Some(Ev::A { cycle: 0, extra: v() }) }
            }
        ";
        let d = lint(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`Ev::B`"));
        assert!(d[0].message.contains("decode"));
    }
}
