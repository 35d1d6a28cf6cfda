//! A miniature HTML template engine.
//!
//! Backs two benchmarks: `DynamicHTML` (PyPy; SeBS "HTML generation with
//! randomized content" — the workload of Figure 1) and `HTMLRendering`
//! (JVM; "HTML template rendering with random numbers"). The engine
//! supports variable substitution with HTML escaping, `{% for %}` loops,
//! and `{% if %}` conditionals — enough structure that rendering exercises
//! parse/dispatch/escape "methods" whose work counters scale with the
//! randomized model data.

use std::collections::HashMap;
use std::fmt;

/// A value bound into a template context.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A text value (HTML-escaped on output).
    Text(String),
    /// A numeric value.
    Number(f64),
    /// A list (iterable by `{% for %}`).
    List(Vec<Value>),
}

impl Value {
    fn truthy(&self) -> bool {
        match self {
            Value::Text(s) => !s.is_empty(),
            Value::Number(n) => *n != 0.0,
            Value::List(l) => !l.is_empty(),
        }
    }
}

/// Template parse/render errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemplateError {
    /// `{% for %}`/`{% if %}` without a matching `{% end %}`.
    UnclosedBlock(&'static str),
    /// `{% end %}` without an open block.
    UnexpectedEnd,
    /// A tag that the engine does not know.
    UnknownTag(String),
    /// `{{ ... }}` or `{% ... %}` without a closing delimiter.
    UnclosedDelimiter,
    /// A `{% for %}` over a non-list value.
    NotIterable(String),
}

impl fmt::Display for TemplateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemplateError::UnclosedBlock(kind) => write!(f, "unclosed {{% {kind} %}} block"),
            TemplateError::UnexpectedEnd => write!(f, "unexpected {{% end %}}"),
            TemplateError::UnknownTag(t) => write!(f, "unknown tag: {t}"),
            TemplateError::UnclosedDelimiter => write!(f, "unclosed template delimiter"),
            TemplateError::NotIterable(name) => write!(f, "variable {name} is not a list"),
        }
    }
}

impl std::error::Error for TemplateError {}

/// Parsed template node.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Literal(String),
    Var(String),
    For {
        var: String,
        list: String,
        body: Vec<Node>,
    },
    If {
        cond: String,
        body: Vec<Node>,
    },
}

/// A compiled template.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    nodes: Vec<Node>,
}

/// Render-side work counters (JIT work units for the HTML benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RenderStats {
    /// Template nodes evaluated (loop bodies count per iteration).
    pub nodes_rendered: usize,
    /// Variable lookups performed.
    pub lookups: usize,
    /// Characters escaped.
    pub chars_escaped: usize,
    /// Output bytes produced.
    pub bytes_out: usize,
}

impl Template {
    /// Parses template source.
    ///
    /// Syntax: `{{ name }}` substitution, `{% for item in list %}` ...
    /// `{% end %}`, `{% if name %}` ... `{% end %}`.
    pub fn parse(source: &str) -> Result<Template, TemplateError> {
        let mut stack: Vec<(Option<Node>, Vec<Node>)> = vec![(None, Vec::new())];
        let mut rest = source;
        while !rest.is_empty() {
            if let Some(start) = rest
                .find("{{")
                .map(|v| (v, true))
                .into_iter()
                .chain(rest.find("{%").map(|v| (v, false)))
                .min_by_key(|&(pos, _)| pos)
            {
                let (pos, is_var) = start;
                if pos > 0 {
                    stack
                        .last_mut()
                        .expect("stack never empty")
                        .1
                        .push(Node::Literal(rest[..pos].to_string()));
                }
                let closer = if is_var { "}}" } else { "%}" };
                let tail = &rest[pos + 2..];
                let end = tail.find(closer).ok_or(TemplateError::UnclosedDelimiter)?;
                let inner = tail[..end].trim().to_string();
                rest = &tail[end + 2..];
                if is_var {
                    stack
                        .last_mut()
                        .expect("stack never empty")
                        .1
                        .push(Node::Var(inner));
                    continue;
                }
                let words: Vec<&str> = inner.split_whitespace().collect();
                match words.as_slice() {
                    ["for", var, "in", list] => {
                        stack.push((
                            Some(Node::For {
                                var: (*var).to_string(),
                                list: (*list).to_string(),
                                body: Vec::new(),
                            }),
                            Vec::new(),
                        ));
                    }
                    ["if", cond] => {
                        stack.push((
                            Some(Node::If {
                                cond: (*cond).to_string(),
                                body: Vec::new(),
                            }),
                            Vec::new(),
                        ));
                    }
                    ["end"] => {
                        let (header, body) = stack.pop().expect("stack never empty");
                        let mut node = header.ok_or(TemplateError::UnexpectedEnd)?;
                        match &mut node {
                            Node::For { body: b, .. } | Node::If { body: b, .. } => *b = body,
                            _ => unreachable!("only blocks are pushed with headers"),
                        }
                        stack.last_mut().expect("stack never empty").1.push(node);
                    }
                    _ => return Err(TemplateError::UnknownTag(inner)),
                }
            } else {
                stack
                    .last_mut()
                    .expect("stack never empty")
                    .1
                    .push(Node::Literal(rest.to_string()));
                rest = "";
            }
        }
        if stack.len() != 1 {
            let kind = match stack.last().and_then(|(h, _)| h.as_ref()) {
                Some(Node::For { .. }) => "for",
                Some(Node::If { .. }) => "if",
                _ => "block",
            };
            return Err(TemplateError::UnclosedBlock(kind));
        }
        let (_, nodes) = stack.pop().expect("exactly one frame");
        Ok(Template { nodes })
    }

    /// Renders the template against `context`, returning the HTML and the
    /// work counters.
    pub fn render(
        &self,
        context: &HashMap<String, Value>,
    ) -> Result<(String, RenderStats), TemplateError> {
        let mut out = String::new();
        let mut stats = RenderStats::default();
        let mut scope = context.clone();
        render_nodes(&self.nodes, &mut scope, &mut out, &mut stats)?;
        stats.bytes_out = out.len();
        Ok((out, stats))
    }
}

/// A template's [`RenderStats`] as a function of one list of integers,
/// measured once with the real engine.
///
/// When each item of the list renders the same nodes and lookups and
/// prints the item's decimal digits once (a loop body that substitutes
/// the loop variable once and depends on nothing else that varies), the
/// counters are affine in the item count plus the digits printed.
/// [`measure`](Self::measure) renders zero items and one item (the number
/// 0, one digit) to get the fixed and per-item parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntListRender {
    fixed: RenderStats,
    per_item: RenderStats,
}

impl IntListRender {
    /// Measures `template` rendered against `context` with `list` bound to
    /// an empty list and to `[0]`.
    pub fn measure(
        template: &Template,
        context: &HashMap<String, Value>,
        list: &str,
    ) -> Result<IntListRender, TemplateError> {
        let mut ctx = context.clone();
        let mut render = |items: Vec<Value>| {
            ctx.insert(list.to_string(), Value::List(items));
            template.render(&ctx).map(|(_, stats)| stats)
        };
        let fixed = render(Vec::new())?;
        let one = render(vec![Value::Number(0.0)])?;
        let per_item = RenderStats {
            nodes_rendered: one.nodes_rendered - fixed.nodes_rendered,
            lookups: one.lookups - fixed.lookups,
            chars_escaped: one.chars_escaped - fixed.chars_escaped,
            // Without the one digit of "0".
            bytes_out: one.bytes_out - fixed.bytes_out - 1,
        };
        Ok(IntListRender { fixed, per_item })
    }

    /// The counters of rendering `items` integers whose decimal digit
    /// counts (see [`decimal_digits`]) sum to `digits`.
    pub fn stats(&self, items: usize, digits: usize) -> RenderStats {
        RenderStats {
            nodes_rendered: self.fixed.nodes_rendered + items * self.per_item.nodes_rendered,
            lookups: self.fixed.lookups + items * self.per_item.lookups,
            chars_escaped: self.fixed.chars_escaped + items * self.per_item.chars_escaped,
            bytes_out: self.fixed.bytes_out + items * self.per_item.bytes_out + digits,
        }
    }
}

/// Decimal digits the engine prints for the number `n`.
pub fn decimal_digits(n: u32) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

fn render_nodes(
    nodes: &[Node],
    scope: &mut HashMap<String, Value>,
    out: &mut String,
    stats: &mut RenderStats,
) -> Result<(), TemplateError> {
    for node in nodes {
        stats.nodes_rendered += 1;
        match node {
            Node::Literal(text) => out.push_str(text),
            Node::Var(name) => {
                stats.lookups += 1;
                match scope.get(name) {
                    Some(Value::Text(s)) => escape_into(s, out, stats),
                    Some(Value::Number(n)) => {
                        if n.fract() == 0.0 && n.abs() < 1e15 {
                            out.push_str(&format!("{}", *n as i64));
                        } else {
                            out.push_str(&format!("{n}"));
                        }
                    }
                    Some(Value::List(l)) => out.push_str(&format!("[list:{}]", l.len())),
                    None => {} // missing variables render as empty, like Jinja
                }
            }
            Node::For { var, list, body } => {
                stats.lookups += 1;
                let items = match scope.get(list) {
                    Some(Value::List(items)) => items.clone(),
                    Some(_) => return Err(TemplateError::NotIterable(list.clone())),
                    None => Vec::new(),
                };
                let shadowed = scope.remove(var);
                for item in items {
                    scope.insert(var.clone(), item);
                    render_nodes(body, scope, out, stats)?;
                }
                match shadowed {
                    Some(v) => {
                        scope.insert(var.clone(), v);
                    }
                    None => {
                        scope.remove(var);
                    }
                }
            }
            Node::If { cond, body } => {
                stats.lookups += 1;
                let truthy = scope.get(cond).map(Value::truthy).unwrap_or(false);
                if truthy {
                    render_nodes(body, scope, out, stats)?;
                }
            }
        }
    }
    Ok(())
}

fn escape_into(s: &str, out: &mut String, stats: &mut RenderStats) {
    for c in s.chars() {
        match c {
            '<' => {
                out.push_str("&lt;");
                stats.chars_escaped += 1;
            }
            '>' => {
                out.push_str("&gt;");
                stats.chars_escaped += 1;
            }
            '&' => {
                out.push_str("&amp;");
                stats.chars_escaped += 1;
            }
            '"' => {
                out.push_str("&quot;");
                stats.chars_escaped += 1;
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(pairs: &[(&str, Value)]) -> HashMap<String, Value> {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn renders_literals_and_variables() {
        let t = Template::parse("<h1>{{ title }}</h1>").unwrap();
        let (html, stats) = t
            .render(&ctx(&[("title", Value::Text("Hot Starts".into()))]))
            .unwrap();
        assert_eq!(html, "<h1>Hot Starts</h1>");
        assert_eq!(stats.lookups, 1);
        assert!(stats.bytes_out > 0);
    }

    #[test]
    fn escapes_html_in_text_values() {
        let t = Template::parse("{{ v }}").unwrap();
        let (html, stats) = t
            .render(&ctx(&[("v", Value::Text("<b>&\"".into()))]))
            .unwrap();
        assert_eq!(html, "&lt;b&gt;&amp;&quot;");
        assert_eq!(stats.chars_escaped, 4);
    }

    #[test]
    fn numbers_render_without_escaping() {
        let t = Template::parse("{{ n }}/{{ f }}").unwrap();
        let (html, _) = t
            .render(&ctx(&[
                ("n", Value::Number(42.0)),
                ("f", Value::Number(2.5)),
            ]))
            .unwrap();
        assert_eq!(html, "42/2.5");
    }

    #[test]
    fn for_loop_iterates_list() {
        let t = Template::parse("<ul>{% for x in xs %}<li>{{ x }}</li>{% end %}</ul>").unwrap();
        let items = Value::List(vec![
            Value::Number(1.0),
            Value::Number(2.0),
            Value::Number(3.0),
        ]);
        let (html, stats) = t.render(&ctx(&[("xs", items)])).unwrap();
        assert_eq!(html, "<ul><li>1</li><li>2</li><li>3</li></ul>");
        // 1 for-node + 3 iterations x 3 body nodes.
        assert!(stats.nodes_rendered >= 10);
    }

    #[test]
    fn if_respects_truthiness() {
        let t = Template::parse("{% if flag %}yes{% end %}no").unwrap();
        let (html, _) = t.render(&ctx(&[("flag", Value::Number(1.0))])).unwrap();
        assert_eq!(html, "yesno");
        let (html, _) = t.render(&ctx(&[("flag", Value::Number(0.0))])).unwrap();
        assert_eq!(html, "no");
        let (html, _) = t.render(&ctx(&[])).unwrap();
        assert_eq!(html, "no");
    }

    #[test]
    fn nested_loops_render() {
        let t =
            Template::parse("{% for row in rows %}{% for c in cols %}{{ c }}{% end %};{% end %}")
                .unwrap();
        let (html, _) = t
            .render(&ctx(&[
                (
                    "rows",
                    Value::List(vec![Value::Number(0.0), Value::Number(1.0)]),
                ),
                (
                    "cols",
                    Value::List(vec![Value::Text("a".into()), Value::Text("b".into())]),
                ),
            ]))
            .unwrap();
        assert_eq!(html, "ab;ab;");
    }

    #[test]
    fn loop_variable_shadowing_is_restored() {
        let t = Template::parse("{% for x in xs %}{{ x }}{% end %}{{ x }}").unwrap();
        let (html, _) = t
            .render(&ctx(&[
                ("x", Value::Text("outer".into())),
                ("xs", Value::List(vec![Value::Text("inner".into())])),
            ]))
            .unwrap();
        assert_eq!(html, "innerouter");
    }

    #[test]
    fn missing_variable_renders_empty() {
        let t = Template::parse("[{{ nothing }}]").unwrap();
        let (html, _) = t.render(&ctx(&[])).unwrap();
        assert_eq!(html, "[]");
    }

    #[test]
    fn parse_errors_are_reported() {
        assert_eq!(
            Template::parse("{% for x in %}"),
            Err(TemplateError::UnknownTag("for x in".into()))
        );
        assert_eq!(
            Template::parse("{% end %}"),
            Err(TemplateError::UnexpectedEnd)
        );
        assert_eq!(
            Template::parse("{% if a %}x"),
            Err(TemplateError::UnclosedBlock("if"))
        );
        assert_eq!(
            Template::parse("{{ a "),
            Err(TemplateError::UnclosedDelimiter)
        );
    }

    #[test]
    fn iterating_non_list_is_an_error() {
        let t = Template::parse("{% for x in v %}{% end %}").unwrap();
        assert_eq!(
            t.render(&ctx(&[("v", Value::Number(3.0))])),
            Err(TemplateError::NotIterable("v".into()))
        );
    }

    #[test]
    fn work_scales_with_list_size() {
        let t = Template::parse("{% for x in xs %}{{ x }}{% end %}").unwrap();
        let small = Value::List(vec![Value::Number(1.0); 10]);
        let large = Value::List(vec![Value::Number(1.0); 100]);
        let (_, s) = t.render(&ctx(&[("xs", small)])).unwrap();
        let (_, l) = t.render(&ctx(&[("xs", large)])).unwrap();
        assert!(l.nodes_rendered > s.nodes_rendered * 5);
        assert!(l.bytes_out > s.bytes_out);
    }
}
