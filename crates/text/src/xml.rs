//! A minimal XML reader/writer.
//!
//! SQL Server exposes query plans as XML showplans; `lantern-plan`
//! parses that artifact into an operator tree. This module implements
//! the XML subset those documents use: elements, attributes, text
//! content, self-closing tags, comments, processing instructions, CDATA,
//! and the five predefined entities.

use std::fmt;

/// Deepest element nesting [`XmlNode::parse`] accepts (the root counts
/// as one level). The reader recurses once per element, so an unbounded
/// depth would let a small document overflow the stack; a real showplan
/// nests a few dozen elements at most.
pub const MAX_DEPTH: usize = 256;

/// An XML element with attributes, child elements, and concatenated text
/// content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlNode {
    /// Element name (namespace prefixes are kept verbatim).
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Child elements in document order.
    pub children: Vec<XmlNode>,
    /// Concatenated character data directly inside this element.
    pub text: String,
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset in the input where the error occurred.
    pub offset: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XmlError {}

impl XmlNode {
    /// Create an element with no attributes or children.
    pub fn new(name: impl Into<String>) -> Self {
        XmlNode {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
            text: String::new(),
        }
    }

    /// Builder-style attribute addition.
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push((key.into(), value.into()));
        self
    }

    /// Builder-style child addition.
    pub fn with_child(mut self, child: XmlNode) -> Self {
        self.children.push(child);
        self
    }

    /// Attribute lookup.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// First child with the given element name (namespace-prefix
    /// insensitive: matches local name too).
    pub fn child(&self, name: &str) -> Option<&XmlNode> {
        self.children
            .iter()
            .find(|c| c.local_name() == name || c.name == name)
    }

    /// All children with the given element name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlNode> + 'a {
        self.children
            .iter()
            .filter(move |c| c.local_name() == name || c.name == name)
    }

    /// Element name without namespace prefix.
    pub fn local_name(&self) -> &str {
        self.name.rsplit(':').next().unwrap_or(&self.name)
    }

    /// Parse an XML document; returns the root element. Leading XML
    /// declarations, comments, and whitespace are skipped.
    pub fn parse(input: &str) -> Result<XmlNode, XmlError> {
        let mut p = XmlParser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_misc();
        let root = p.element()?;
        p.skip_misc();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content after root element"));
        }
        Ok(root)
    }

    /// Serialize with 2-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        for _ in 0..depth * 2 {
            out.push(' ');
        }
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attributes {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            escape_into(out, v);
            out.push('"');
        }
        if self.children.is_empty() && self.text.is_empty() {
            out.push_str("/>\n");
            return;
        }
        out.push('>');
        if !self.text.is_empty() {
            escape_into(out, &self.text);
        }
        if !self.children.is_empty() {
            out.push('\n');
            for child in &self.children {
                child.write(out, depth + 1);
            }
            for _ in 0..depth * 2 {
                out.push(' ');
            }
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push_str(">\n");
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
}

struct XmlParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Elements currently open.
    depth: usize,
}

impl<'a> XmlParser<'a> {
    fn err(&self, msg: &str) -> XmlError {
        XmlError {
            offset: self.pos,
            message: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skip whitespace, XML declarations (`<?...?>`), comments, and
    /// DOCTYPEs between top-level constructs.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_until("?>");
            } else if self.starts_with("<!--") {
                self.skip_until("-->");
            } else if self.starts_with("<!DOCTYPE") {
                self.skip_until(">");
            } else {
                return;
            }
        }
    }

    fn skip_until(&mut self, end: &str) {
        while self.pos < self.bytes.len() && !self.starts_with(end) {
            self.pos += 1;
        }
        self.pos = (self.pos + end.len()).min(self.bytes.len());
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let c = b as char;
            if c.is_alphanumeric() || matches!(c, ':' | '_' | '-' | '.') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected name"));
        }
        Ok(std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in name"))?
            .to_string())
    }

    /// Parse one element, one level deeper than the caller.
    fn element(&mut self) -> Result<XmlNode, XmlError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} elements")));
        }
        self.depth += 1;
        let node = self.element_body();
        self.depth -= 1;
        node
    }

    fn element_body(&mut self) -> Result<XmlNode, XmlError> {
        if self.peek() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        self.pos += 1;
        let name = self.name()?;
        let mut node = XmlNode::new(name);
        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(self.err("expected '>' after '/'"));
                    }
                    self.pos += 1;
                    return Ok(node);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.err("expected '=' in attribute"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = self.peek();
                    if !matches!(quote, Some(b'"' | b'\'')) {
                        return Err(self.err("expected quoted attribute value"));
                    }
                    let q = quote.unwrap();
                    self.pos += 1;
                    let start = self.pos;
                    while self.peek().is_some() && self.peek() != Some(q) {
                        self.pos += 1;
                    }
                    if self.peek() != Some(q) {
                        return Err(self.err("unterminated attribute value"));
                    }
                    let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in attribute"))?;
                    node.attributes.push((key, unescape(raw)));
                    self.pos += 1;
                }
                None => return Err(self.err("unexpected end of input in tag")),
            }
        }
        // Content.
        loop {
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.name()?;
                if close != node.name {
                    return Err(self.err(&format!(
                        "mismatched closing tag: expected </{}>, found </{close}>",
                        node.name
                    )));
                }
                self.skip_ws();
                if self.peek() != Some(b'>') {
                    return Err(self.err("expected '>' in closing tag"));
                }
                self.pos += 1;
                return Ok(node);
            } else if self.starts_with("<!--") {
                self.skip_until("-->");
            } else if self.starts_with("<![CDATA[") {
                self.pos += 9;
                let start = self.pos;
                while self.pos < self.bytes.len() && !self.starts_with("]]>") {
                    self.pos += 1;
                }
                node.text.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in CDATA"))?,
                );
                self.skip_until("]]>");
            } else if self.starts_with("<?") {
                self.skip_until("?>");
            } else if self.peek() == Some(b'<') {
                node.children.push(self.element()?);
            } else if self.peek().is_some() {
                let start = self.pos;
                while self.peek().is_some() && self.peek() != Some(b'<') {
                    self.pos += 1;
                }
                let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in text"))?;
                let unescaped = unescape(raw);
                let trimmed = unescaped.trim();
                if !trimmed.is_empty() {
                    node.text.push_str(trimmed);
                }
            } else {
                return Err(self.err("unexpected end of input in element content"));
            }
        }
    }
}

fn unescape(s: &str) -> String {
    if !s.contains('&') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(idx) = rest.find('&') {
        out.push_str(&rest[..idx]);
        rest = &rest[idx..];
        let end = rest.find(';').unwrap_or(0);
        match &rest[..=end.min(rest.len() - 1)] {
            "&lt;" => {
                out.push('<');
                rest = &rest[4..];
            }
            "&gt;" => {
                out.push('>');
                rest = &rest[4..];
            }
            "&amp;" => {
                out.push('&');
                rest = &rest[5..];
            }
            "&quot;" => {
                out.push('"');
                rest = &rest[6..];
            }
            "&apos;" => {
                out.push('\'');
                rest = &rest[6..];
            }
            ent if ent.starts_with("&#") && ent.ends_with(';') => {
                let body = &ent[2..ent.len() - 1];
                let cp = if let Some(hex) = body.strip_prefix('x') {
                    u32::from_str_radix(hex, 16).ok()
                } else {
                    body.parse::<u32>().ok()
                };
                if let Some(c) = cp.and_then(char::from_u32) {
                    out.push(c);
                } else {
                    out.push('&');
                    rest = &rest[1..];
                    continue;
                }
                rest = &rest[ent.len()..];
            }
            _ => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_element() {
        let n = XmlNode::parse("<a/>").unwrap();
        assert_eq!(n.name, "a");
        assert!(n.children.is_empty());
    }

    #[test]
    fn parses_attributes_and_children() {
        let doc = r#"<RelOp PhysicalOp="Hash Match" LogicalOp="Inner Join">
            <RelOp PhysicalOp="Table Scan" Table="orders"/>
        </RelOp>"#;
        let n = XmlNode::parse(doc).unwrap();
        assert_eq!(n.attr("PhysicalOp"), Some("Hash Match"));
        assert_eq!(n.children.len(), 1);
        assert_eq!(n.children[0].attr("Table"), Some("orders"));
    }

    #[test]
    fn skips_declaration_and_comments() {
        let doc = "<?xml version=\"1.0\"?><!-- c --><root><child/></root>";
        let n = XmlNode::parse(doc).unwrap();
        assert_eq!(n.name, "root");
        assert_eq!(n.children.len(), 1);
    }

    #[test]
    fn rejects_mismatched_tags() {
        assert!(XmlNode::parse("<a><b></a></b>").is_err());
    }

    #[test]
    fn unescapes_entities() {
        let n = XmlNode::parse("<a v=\"x &lt; y &amp; z\">a &gt; b</a>").unwrap();
        assert_eq!(n.attr("v"), Some("x < y & z"));
        assert_eq!(n.text, "a > b");
    }

    #[test]
    fn numeric_entities() {
        let n = XmlNode::parse("<a>&#65;&#x42;</a>").unwrap();
        assert_eq!(n.text, "AB");
    }

    #[test]
    fn cdata_is_text() {
        let n = XmlNode::parse("<a><![CDATA[x < y]]></a>").unwrap();
        assert_eq!(n.text, "x < y");
    }

    #[test]
    fn namespace_local_name() {
        let n = XmlNode::parse("<shp:ShowPlanXML/>").unwrap();
        assert_eq!(n.local_name(), "ShowPlanXML");
    }

    #[test]
    fn round_trip_through_pretty_printer() {
        let original = XmlNode::new("Root")
            .with_attr("a", "1 < 2")
            .with_child(XmlNode::new("Child").with_attr("x", "y"));
        let text = original.to_string_pretty();
        let reparsed = XmlNode::parse(&text).unwrap();
        assert_eq!(reparsed, original);
    }

    #[test]
    fn child_lookup_by_local_name() {
        let doc = "<r><ns:Item k=\"1\"/><Item k=\"2\"/></r>";
        let n = XmlNode::parse(doc).unwrap();
        assert_eq!(n.children_named("Item").count(), 2);
        assert_eq!(n.child("Item").unwrap().attr("k"), Some("1"));
    }

    #[test]
    fn nesting_is_bounded() {
        let doc = format!("{}{}", "<a>".repeat(MAX_DEPTH), "</a>".repeat(MAX_DEPTH));
        assert!(XmlNode::parse(&doc).is_ok());
        let doc = format!(
            "{}{}",
            "<a>".repeat(MAX_DEPTH + 1),
            "</a>".repeat(MAX_DEPTH + 1)
        );
        let err = XmlNode::parse(&doc).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // A hostile showplan far past the limit (a few hundred KB).
        let err = XmlNode::parse(&"<a>".repeat(60_000)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }
}
